"""Side-effecting constraint systems with strategy-tree right-hand sides.

An unknown is a decorated program point, a global, or one of the two
harness markers.  A right-hand side is a strategy tree::

    Ans(value) | QGet(unknown, continuation) | QSet(unknown, value, rest)
               | Emit(global, access, rest)

evaluated under a state-monad discipline: ``QGet`` asks for the value of an
unknown and records the query, ``QSet`` contributes a value to an unknown by
joining it into a write-only side channel, and ``Emit`` annotates the
evaluation with an access record of a global, which no value depends on.
Trees are pure: re-evaluating a tree under the same lookup yields identical
results, and the result depends only on the values of the unknowns actually
queried.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from .domains import Access, Value, join, value_from_json, value_to_json


# ---------------------------------------------------------------------------
# Unknown identities
# ---------------------------------------------------------------------------


# Unknowns are dict and set keys on every solver step.  Context and NodeCtx
# nest tuples of values, so each computes its hash once, at construction;
# the value is the hash the dataclass would generate (that of the compared
# fields' tuple), which keeps every set and dict order.


@dataclass(frozen=True, slots=True)
class Context:
    """Calling context: canonical (sorted) abstract parameter assignment."""

    params: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    EMPTY: ClassVar["Context"]  # the empty calling context, set below

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.params,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(mapping: dict) -> "Context":
        return Context(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.params)

    def __repr__(self) -> str:
        if not self.params:
            return "∅"
        return "{" + ",".join(f"{k}↦{v!r}" for k, v in self.params) + "}"


Context.EMPTY = Context()


@dataclass(frozen=True, slots=True)
class NodeCtx:
    """Program point of a function, decorated with a calling context."""

    fn: str
    node: int
    ctx: Context
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.fn, self.node, self.ctx)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"⟨{self.node},{self.ctx!r}⟩"


@dataclass(frozen=True)
class GlobalVar:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InitMarker:
    def __repr__(self) -> str:
        return "init"


@dataclass(frozen=True)
class MainMarker:
    def __repr__(self) -> str:
        return "__main"


INIT = InitMarker()
MAIN = MainMarker()

Unknown = object  # union of the four kinds above


def sort_key(u: Unknown):
    """Total deterministic order over unknowns."""
    if isinstance(u, NodeCtx):
        return (3, u.fn, u.node, _ctx_key(u.ctx))
    if isinstance(u, GlobalVar):
        return (2, u.name, 0, "")
    if isinstance(u, MainMarker):
        return (1, "", 0, "")
    if isinstance(u, InitMarker):
        return (0, "", 0, "")
    raise TypeError(f"not an unknown: {u!r}")


@functools.lru_cache(maxsize=1024)  # a program has few distinct contexts
def _ctx_key(c: Context) -> str:
    return json.dumps([[k, value_to_json(v)] for k, v in c.params],
                      sort_keys=True, separators=(",", ":"))


def unknown_to_json(u: Unknown):
    if isinstance(u, NodeCtx):
        return {"k": "node", "fn": u.fn, "id": u.node,
                "ctx": [[k, value_to_json(v)] for k, v in u.ctx.params]}
    if isinstance(u, GlobalVar):
        return {"k": "global", "name": u.name}
    if isinstance(u, InitMarker):
        return {"k": "init"}
    if isinstance(u, MainMarker):
        return {"k": "main"}
    raise TypeError(f"not an unknown: {u!r}")


def unknown_from_json(d: dict, contexts: Optional[Dict[str, Context]] = None) -> Unknown:
    """The unknown `d` encodes.  Unknowns decoded with the same `contexts`
    (the repr of a context's JSON -> its `Context`) share equal contexts."""
    k = d["k"]
    if k == "node":
        contexts = {} if contexts is None else contexts
        text = repr(d["ctx"])
        if text not in contexts:
            contexts[text] = Context(tuple((n, value_from_json(v)) for n, v in d["ctx"]))
        return NodeCtx(d["fn"], d["id"], contexts[text])
    if k == "global":
        return GlobalVar(d["name"])
    if k == "init":
        return INIT
    if k == "main":
        return MAIN
    raise ValueError(f"unknown kind {k!r}")


def unknown_key(u: Unknown) -> str:
    """Canonical string identity, stable across runs; `unknown_from_json` of
    its `json.loads` inverts it."""
    return json.dumps(unknown_to_json(u), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Strategy trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ans:
    value: Value


@dataclass(frozen=True)
class QGet:
    unknown: Unknown
    cont: Callable  # Value -> tree


@dataclass(frozen=True)
class QSet:
    unknown: Unknown
    value: Value
    rest: object  # tree


@dataclass(frozen=True)
class Emit:
    glob: str
    access: Access
    rest: object  # tree


Tree = object  # Ans | QGet | QSet | Emit


class EvalError(Exception):
    """Right-hand side misbehaved; carries the offending unknown."""

    def __init__(self, unknown: Unknown, message: str):
        super().__init__(f"{message} (at {unknown!r})")
        self.unknown = unknown


@dataclass
class EvalState:
    """Queried unknowns (in query order), accumulated side contributions and
    emitted access records (in emission order)."""

    queried: Dict = field(default_factory=dict)  # ordered set of unknowns
    sides: Dict = field(default_factory=dict)    # unknown -> joined value
    accesses: List[Tuple[str, Access]] = field(default_factory=list)  # (global, record)


def eval_tree(t: Tree, lookup: Callable) -> Tuple[EvalState, Value]:
    """Pure evaluation: record queries, join side contributions, collect
    access records, never write σ."""
    s = EvalState()
    queried, sides = s.queried, s.sides
    while True:
        if isinstance(t, Ans):
            return s, t.value
        if isinstance(t, QGet):
            u = t.unknown
            queried[u] = None
            t = t.cont(lookup(u))
        elif isinstance(t, QSet):
            u, d = t.unknown, t.value
            old = sides.get(u)
            try:
                sides[u] = d if old is None else join(old, d)
            except Exception as exc:
                raise EvalError(u, f"side contribution of wrong domain: {exc}") from exc
            t = t.rest
        elif isinstance(t, Emit):
            s.accesses.append((t.glob, t.access))
            t = t.rest
        else:
            raise TypeError(f"not a strategy tree node: {t!r}")


# ---------------------------------------------------------------------------
# Equation systems
# ---------------------------------------------------------------------------


class EqSys:
    """A side-effecting constraint system.

    ``rhs(u)`` returns the strategy tree of `u`, or None if `u` has no
    right-hand side (a flow-insensitive unknown, whose values arrive by
    side-effect only); ``has_rhs(u)`` tells which without building the tree.
    `query` is the one unknown that solving starts from.
    """

    def __init__(self, rhs: Callable, query: Unknown, bot_of: Callable, has_rhs: Callable):
        self.rhs = rhs
        self.has_rhs = has_rhs
        self.query = query
        self.bot_of = bot_of

    def lookup(self, sigma: dict) -> Callable:
        """σ view for pure evaluation; missing entries default to the domain Bot."""
        bot_of = self.bot_of

        def look(u):
            v = sigma.get(u)
            return bot_of(u) if v is None else v

        return look
