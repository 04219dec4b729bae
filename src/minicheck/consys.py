"""Side-effecting constraint systems with strategy-tree right-hand sides.

An unknown is a decorated program point, a global, an access collector, a
start unknown, or one of the two harness markers.  A right-hand side is a
strategy tree::

    Ans(value) | QGet(unknown, continuation) | QSet(unknown, value, rest)

evaluated under a state-monad discipline: ``QGet`` asks for the value of an
unknown and records the query, ``QSet`` contributes a value to an unknown by
joining it into a write-only side channel.  Trees are pure: re-evaluating a
tree under the same lookup yields identical results, and the result depends
only on the values of the unknowns actually queried.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, Optional, Tuple

from .domains import Value, join, value_from_json, value_to_json


# ---------------------------------------------------------------------------
# Unknown identities
# ---------------------------------------------------------------------------


# Unknowns are dict and set keys on every solver step.  Context, NodeCtx and
# StartOf nest tuples of values, so each computes its hash once, at
# construction; the value is the hash the dataclass would generate (that of
# the compared fields' tuple), which keeps every set and dict order.


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
class AccCollector:
    """Write-only access accumulator for one global."""

    name: str

    def __repr__(self) -> str:
        return f"acc_{self.name}"


@dataclass(frozen=True, slots=True)
class StartOf:
    """Seeded start unknown of an entry function."""

    fn: str
    ctx: Context
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.fn, self.ctx)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"start({self.fn},{self.ctx!r})"


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

Unknown = object  # union of the five kinds above

_KIND_RANK = {InitMarker: 0, MainMarker: 1, GlobalVar: 2, AccCollector: 3, StartOf: 4, NodeCtx: 5}


def sort_key(u: Unknown):
    """Total deterministic order over unknowns."""
    if isinstance(u, NodeCtx):
        return (5, u.fn, u.node, _ctx_key(u.ctx))
    if isinstance(u, StartOf):
        return (4, u.fn, 0, _ctx_key(u.ctx))
    if isinstance(u, AccCollector):
        return (3, u.name, 0, "")
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
    if isinstance(u, AccCollector):
        return {"k": "acc", "name": u.name}
    if isinstance(u, StartOf):
        return {"k": "start", "fn": u.fn,
                "ctx": [[k, value_to_json(v)] for k, v in u.ctx.params]}
    if isinstance(u, InitMarker):
        return {"k": "init"}
    if isinstance(u, MainMarker):
        return {"k": "main"}
    raise TypeError(f"not an unknown: {u!r}")


def unknown_from_json(d: dict) -> Unknown:
    k = d["k"]
    if k == "node":
        return NodeCtx(d["fn"], d["id"], Context(tuple((n, value_from_json(v)) for n, v in d["ctx"])))
    if k == "global":
        return GlobalVar(d["name"])
    if k == "acc":
        return AccCollector(d["name"])
    if k == "start":
        return StartOf(d["fn"], Context(tuple((n, value_from_json(v)) for n, v in d["ctx"])))
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


Tree = object  # Ans | QGet | QSet


class EvalError(Exception):
    """Right-hand side misbehaved; carries the offending unknown."""

    def __init__(self, unknown: Unknown, message: str):
        super().__init__(f"{message} (at {unknown!r})")
        self.unknown = unknown


@dataclass
class EvalState:
    """Queried unknowns (in query order) and accumulated side contributions."""

    queried: Dict = field(default_factory=dict)  # ordered set of unknowns
    sides: Dict = field(default_factory=dict)    # unknown -> joined value


def eval_tree(t: Tree, lookup: Callable, state: Optional[EvalState] = None) -> Tuple[EvalState, Value]:
    """Pure evaluation: record queries, join side contributions, never write σ."""
    s = state if state is not None else EvalState()
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
        else:
            raise TypeError(f"not a strategy tree node: {t!r}")


def lookup_from(sigma: dict, bot_of: Callable) -> Callable:
    """σ view for pure evaluation; missing entries default to the domain Bot."""

    def look(u):
        v = sigma.get(u)
        return bot_of(u) if v is None else v

    return look


# ---------------------------------------------------------------------------
# Equation systems
# ---------------------------------------------------------------------------


class EqSys:
    """A side-effecting constraint system.

    ``rhs_fn(u, postproc)`` returns the strategy tree of `u` (or None if `u`
    has no right-hand side); `postproc` selects the postprocessing variant,
    which additionally emits deferred access-collector contributions.  `leaf`
    holds the flow-insensitive unknowns (no rhs; values arrive by side-effect
    only).  `starts` are seeded into σ before solving.
    """

    def __init__(self, rhs_fn: Callable, leaf_fn: Callable, starts: dict,
                 query: Unknown, bot_of: Callable):
        self._rhs_fn = rhs_fn
        self._leaf_fn = leaf_fn
        self.starts = dict(starts)
        self.query = query
        self.bot_of = bot_of

    @staticmethod
    def from_dict(rhs: dict, leaf: Iterable, starts: dict, query: Unknown,
                  bot_of: Callable) -> "EqSys":
        leaf_set = frozenset(leaf)
        overlap = leaf_set & set(rhs)
        if overlap:
            raise ValueError(f"leaf unknowns with a rhs: {sorted(map(repr, overlap))}")
        if query not in rhs:
            raise ValueError("query has no rhs")
        return EqSys(lambda u, post=False: rhs.get(u), lambda u: u in leaf_set,
                     starts, query, bot_of)

    def rhs(self, u: Unknown, postproc: bool = False) -> Optional[Tree]:
        if self._leaf_fn(u):
            return None
        return self._rhs_fn(u, postproc)

    def lookup(self, sigma: dict) -> Callable:
        return lookup_from(sigma, self.bot_of)
