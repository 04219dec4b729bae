"""Demand-driven local fixpoint solver for side-effecting constraint systems.

``solve`` explores only the unknowns contributing to the queried one,
tracking influences as it goes.  Widening/narrowing phases are applied at
dynamically detected widening points (unknowns closing a dependency cycle,
and flow-insensitive leaves).  Side-effects widen the target's value and
destabilize its dependents.  The resulting ``SolverState`` is a *partial
postsolution*: re-evaluating any stable unknown under σ stays below its
stored value (checked by :func:`verify_solution`).

The optional ``restart_wpoint`` policy refines precision in two ways:

* it resets an unknown to Bot (and destabilizes it) whenever it turns into
  a widening point, purging values accumulated before the cycle was known;
  restarts are bounded per unknown per run;
* it localizes widening: an unknown leaves the widening-point set once its
  narrowing iteration stabilizes, so inner cycles can be re-iterated
  without widening when outer values shrink.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .consys import (
    Ans,
    Context,
    Emit,
    EqSys,
    EvalError,
    EvalState,
    QGet,
    QSet,
    Tree,
    Unknown,
    eval_tree,
    sort_key,
    unknown_from_json,
    unknown_to_json,
)
from .domains import Value, leq, narrow, value_from_json, value_to_json, widen


class Phase(enum.Enum):
    WIDEN = "widen"
    NARROW = "narrow"


MAX_WPOINT_RESTARTS = 32  # per unknown per run, defensive
MAX_SOLVE_DEPTH = 400_000  # frames on the solve stack, defensive


class SolverDepthError(Exception):
    pass


@dataclass
class Violation:
    unknown: Unknown
    kind: str  # "value" | "side"
    detail: str

    def __repr__(self) -> str:
        return f"Violation({self.kind} at {self.unknown!r}: {self.detail})"


def _unlogged(table, *args, **kwargs):
    raise TypeError(f"{type(table).__name__} is written only by methods that log")


class _Match:
    """Equal to what `key` equals; a lookup of it in a dict leaves in `met`
    the key object the dict holds.  (An unknown's dataclass `__eq__` answers
    NotImplemented for another class, so the lookup asks this one.)"""

    __slots__ = ("key", "met")

    def __init__(self, key: Unknown):
        self.key = key

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        self.met = other
        return other == self.key


class Values(dict):
    """σ: unknown -> its value.  Its writers are `__setitem__` and `pop`;
    the other mutators of a dict raise.  While `log` is a dict, as in
    `Rows`, each records there, the first time it writes a key, what the
    key's value was: the value, or None if none."""

    log: Optional[Dict[Unknown, Optional[Value]]] = None
    update = setdefault = popitem = clear = __delitem__ = __ior__ = _unlogged

    def __setitem__(self, key: Unknown, value: Value) -> None:
        if self.log is not None:
            self.log.setdefault(key, self.get(key))
        dict.__setitem__(self, key, value)

    def pop(self, key: Unknown, *default):
        if self.log is not None:
            self.log.setdefault(key, self.get(key))
        return dict.pop(self, key, *default)

    def own(self, key: Unknown) -> Unknown:
        """σ's own key object that equals `key`, else `key`: a write keeps
        the object a key was first set with, and logs the one it is given."""
        match = _Match(key)
        return match.met if match in self else key


class Members(set):
    """`stable` or `point`: a set of unknowns.  Its writers are `add`,
    `discard` and `difference_update`; the other mutators of a set raise.
    While `log` is a dict, each records there, the first time it adds or
    removes a key, whether the key was a member: True, or None if not."""

    log: Optional[Dict[Unknown, Optional[bool]]] = None
    update = remove = pop = clear = intersection_update = symmetric_difference_update = \
        __ior__ = __iand__ = __isub__ = __ixor__ = _unlogged

    def add(self, key: Unknown) -> None:
        if self.log is not None and key not in self:
            self.log.setdefault(key, None)
        set.add(self, key)

    def discard(self, key: Unknown) -> None:
        if self.log is not None and key in self:
            self.log.setdefault(key, True)
        set.discard(self, key)

    def difference_update(self, keys: Iterable[Unknown]) -> None:
        for key in keys:
            self.discard(key)


class Rows(dict):
    """One of the solver's maps: unknown -> its members, an insertion-ordered
    set (a dict with None values).  Its four methods are the one writer of
    its rows (`tests/test_hygiene.py` pins it); nothing else sets, changes
    or removes one.

    While `log` is a dict (from `tables` until `state_to_json` writes the
    record), a method that changes a row records there, the first time,
    what the row was: the tuple of its members, or None if it was absent.
    So a record visits the rows a reanalysis wrote, not the whole map.
    `log` is None at rest, and stays None for a map that was empty when
    `tables` was taken: every row it has at the save is new."""

    log: Optional[Dict[Unknown, Optional[Tuple[Unknown, ...]]]] = None

    def _note(self, key: Unknown, row: Optional[Dict[Unknown, None]]) -> None:
        """Log `row`, the row of `key` before a change, unless it is logged."""
        if key not in self.log:
            self.log[key] = None if row is None else tuple(row)

    def add(self, key: Unknown, member: Unknown) -> None:
        """Add `member` to the row of `key`, last, if it is not in it."""
        row = self.get(key)
        if row is None or member not in row:
            if self.log is not None:
                self._note(key, row)
            if row is None:
                self[key] = {member: None}
            else:
                row[member] = None

    def drop(self, key: Unknown, member: Unknown) -> None:
        """Remove `member` from the row of `key`; a row it empties goes."""
        row = self.get(key)
        if row is not None and member in row:
            if self.log is not None:
                self._note(key, row)
            if len(row) == 1:
                del self[key]
            else:
                del row[member]

    def take(self, key: Unknown) -> Optional[Dict[Unknown, None]]:
        """Remove the row of `key` and return it; None if there is none."""
        row = self.pop(key, None)
        if row is not None and self.log is not None:
            self._note(key, row)
        return row

    def put(self, key: Unknown, members: Iterable[Unknown]) -> None:
        """Make `members` the row of `key`, in order, where the row was."""
        if self.log is not None:
            self._note(key, self.get(key))
        self[key] = dict.fromkeys(members)


class SolverState:
    """Mutable solver data, persistent between runs.

    σ is `Values`, ``stable`` and ``point`` are `Members`, and ``infl``,
    ``side_dep`` and ``side_infl`` are `Rows`: insertion-ordered sets per
    unknown.  Each table is written only through the methods of its class,
    which log what they change while a reanalysis runs (see `tables`): a
    write anywhere else would be missing from the journal.  Destabilization
    iterates ``infl`` in recorded order, which keeps counters and warning
    output reproducible.  ``side_dep`` maps each side-effected unknown to
    its producers, in the order they were first recorded, and
    ``side_infl`` each producer to what its last evaluation side-effected.
    A stable producer's contribution is what a pure evaluation of its rhs
    under σ side-effects: restarting a global recomputes it so
    (`increment.restart_globals`).

    The solver only adds to ``infl``: `x` stays in ``infl[y]`` after an
    evaluation of `x` that no longer reads `y`.  The post-solve walk drops
    such edges as it evaluates `x` (`increment.reachable_set`), so after
    every walk and pruning a reached stable unknown is in the ``infl`` rows
    of exactly what its last evaluation read.
    """

    def __init__(self):
        self.sigma = Values()
        self.infl = Rows()
        self.stable = Members()
        self.called: set = set()
        self.point = Members()
        self.side_dep = Rows()
        self.side_infl = Rows()
        self.rhs_evals = 0
        self.destabilizations = 0

    def destabilize(self, x: Unknown) -> None:
        """Transitively remove everything influenced by `x` from stable,
        clearing the visited influence sets.  Recursion stops at unknowns
        currently being solved."""
        stack = [x]
        while stack:
            u = stack.pop()
            self.destabilizations += 1
            w = self.infl.take(u)
            if not w:
                continue
            targets = list(w)
            for y in targets:
                self.stable.discard(y)
            for y in reversed(targets):
                if y not in self.called:
                    stack.append(y)


class _Frame:
    """An unknown being solved: the tree node where its rhs stopped, the
    unknown it waits for there, the side targets of its previous
    evaluation and what its evaluations in this run read (`reads`, the
    solver's row for it).  `drop_point` removes it from `point` when the
    frame finishes (localized widening, after its narrowing iteration)."""

    __slots__ = ("x", "phase", "node", "wait", "prev_sides", "drop_point", "reads")

    def __init__(self, x: Unknown, phase: Phase):
        self.x = x
        self.phase = phase
        self.node: Tree = None
        self.wait: Optional[Unknown] = None
        self.prev_sides: List[Unknown] = []
        self.drop_point = False
        self.reads: Dict[Unknown, None] = {}


class Solver:
    def __init__(self, sys_: EqSys, state: SolverState, restart_wpoint: bool = False):
        self.sys = sys_
        self.state = state
        self.restart_wpoint = restart_wpoint
        self._wpoint_restarts: Dict[Unknown, int] = {}
        self.evals_by_unknown: Dict[Unknown, int] = {}  # this step's evaluations
        self.diagnostics: List[str] = []  # this run's widening-restart bound hits
        # every unknown each evaluated unknown read in this run, in any of its
        # evaluations
        self.reads: Dict[Unknown, Dict[Unknown, None]] = {}

    # -- σ access -----------------------------------------------------------

    def _get(self, u: Unknown) -> Value:
        v = self.state.sigma.get(u)
        return self.sys.bot_of(u) if v is None else v

    # -- the TD machinery ---------------------------------------------------

    def solve(self, phase: Phase, x: Unknown) -> None:
        """Solve `x` and, depth first, every unstable unknown its rhs queries.

        The unknowns being solved are frames on an explicit stack.  A rhs
        that queries an unknown in need of solving stops at that `QGet`,
        pushes its frame, and continues with the value once it finishes; a
        re-solve of the same unknown restarts its frame."""
        st = self.state
        if x in st.stable or x in st.called:
            return
        stack: List[_Frame] = []
        self._push(stack, x, phase)
        while stack:
            f = stack[-1]
            x, t, y = f.x, f.node, f.wait
            if y is not None:  # y's frame has finished
                f.wait = None
                st.infl.add(y, x)
                f.reads[y] = None
                t = t.cont(self._get(y))
            while True:
                if isinstance(t, Ans):
                    self._finish(stack, f, t.value)
                    break
                if isinstance(t, QGet):
                    y = t.unknown
                    if y in st.called or not self.sys.has_rhs(y):
                        newly = y not in st.point
                        st.point.add(y)
                        if newly and self.restart_wpoint and y in st.called:
                            self._restart_widening_point(y)
                    elif y not in st.stable:
                        f.node, f.wait = t, y
                        self._push(stack, y, Phase.WIDEN)
                        break
                    st.infl.add(y, x)
                    f.reads[y] = None
                    t = t.cont(self._get(y))
                elif isinstance(t, QSet):
                    self.side(x, t.unknown, t.value)
                    t = t.rest
                elif isinstance(t, Emit):  # an access record: no value depends on it
                    t = t.rest
                else:
                    raise TypeError(f"not a strategy tree node: {t!r}")

    def _push(self, stack: List[_Frame], x: Unknown, phase: Phase) -> None:
        if len(stack) >= MAX_SOLVE_DEPTH:
            raise SolverDepthError(f"solve depth exceeded {MAX_SOLVE_DEPTH} at {x!r}")
        f = _Frame(x, phase)
        stack.append(f)
        self._start(f)

    def _start(self, f: _Frame) -> None:
        """Begin an evaluation of `f`'s rhs."""
        st = self.state
        x = f.x
        st.stable.add(x)
        st.called.add(x)
        st.rhs_evals += 1
        self.evals_by_unknown[x] = self.evals_by_unknown.get(x, 0) + 1
        f.reads = self.reads.setdefault(x, f.reads)
        f.prev_sides = list(st.side_infl.get(x, ()))
        st.side_infl.put(x, ())
        f.node = self.sys.rhs(x)
        if f.node is None:
            raise EvalError(x, "unknown has no right-hand side")

    def _finish(self, stack: List[_Frame], f: _Frame, value: Value) -> None:
        """Settle `f`'s evaluation, which answered `value`: restart the frame
        if its unknown must be solved again, else pop it."""
        st = self.state
        x = f.x
        bot = self.sys.bot_of(x)
        if type(value) is not type(bot):
            raise EvalError(x, f"rhs produced {type(value).__name__}, expected {type(bot).__name__}")
        # side_infl reflects the *last* evaluation; keep side_dep the inverse
        current = st.side_infl[x]
        for g in f.prev_sides:
            if g not in current:
                st.side_dep.drop(g, x)
        if not current:
            st.side_infl.take(x)
        st.called.discard(x)
        if x in st.point:
            cur = self._get(x)
            value = widen(cur, value) if f.phase is Phase.WIDEN else narrow(cur, value)
        if x not in st.stable:
            # a side-effect during evaluation hit something we depend on
            f.phase = Phase.WIDEN
        elif self._get(x) == value:
            if f.phase is Phase.NARROW or x not in st.point:
                return self._pop(stack)
            # a widening point at its fixpoint: narrow
            st.stable.discard(x)
            f.phase = Phase.NARROW
            f.drop_point = self.restart_wpoint
        else:
            st.sigma[x] = value
            st.destabilize(x)
            if x in st.stable:
                return self._pop(stack)
        self._start(f)

    def _pop(self, stack: List[_Frame]) -> None:
        f = stack.pop()
        if f.drop_point:
            self.state.point.discard(f.x)

    def _restart_widening_point(self, y: Unknown) -> None:
        st = self.state
        n = self._wpoint_restarts.get(y, 0)
        if n >= MAX_WPOINT_RESTARTS:
            self.diagnostics.append(f"widening-point restart bound hit at {y!r}")
            return
        self._wpoint_restarts[y] = n + 1
        st.sigma.pop(y, None)
        st.destabilize(y)

    def side(self, x: Unknown, g: Unknown, d: Value) -> None:
        """`x`'s contribution `d` to `g`: widened into σ(g), destabilizing
        the readers of `g` if it grew; `x` is recorded as a producer of `g`."""
        st = self.state
        bot = self.sys.bot_of(g)
        if type(d) is not type(bot):
            raise EvalError(g, f"side contribution of {type(d).__name__}, expected {type(bot).__name__}")
        cur = self._get(g)
        new = widen(cur, d)
        if new != cur:
            st.sigma[g] = new
            st.stable.add(g)
            st.destabilize(g)
        st.side_infl.add(x, g)
        st.side_dep.add(g, x)


def run(sys_: EqSys, state: SolverState, pre_solve: Iterable[Unknown] = (), *,
        restart_wpoint: bool = False) -> dict:
    """Solve `pre_solve` in order, then the query.

    Returns per-step statistics: rhs-evaluation counts overall and by
    unknown, for the pre-solve step and the query step, the run's
    diagnostics (widening-point restart bound hits) and every unknown it
    evaluated with the tuple of every unknown its evaluations read
    (`reads`).
    """
    solver = Solver(sys_, state, restart_wpoint)
    for a in pre_solve:
        solver.solve(Phase.WIDEN, a)
    step1, solver.evals_by_unknown = solver.evals_by_unknown, {}
    solver.solve(Phase.WIDEN, sys_.query)
    step2 = solver.evals_by_unknown
    assert not state.called, "called set must be empty at rest"
    return {
        "step1_rhs_evals": sum(step1.values()),
        "step2_rhs_evals": sum(step2.values()),
        "step1_evals_by_unknown": step1,
        "step2_evals_by_unknown": step2,
        "diagnostics": solver.diagnostics,
        "reads": {x: tuple(ys) for x, ys in solver.reads.items()},
    }


def check_unknown(sys_: EqSys, state: SolverState, x: Unknown, es: EvalState,
                  val: Value) -> List[Violation]:
    """Violations of the partial postsolution at stable `x`, given `(es, val)`,
    a pure evaluation of its rhs under σ: its value and side contributions
    must stay below σ."""
    out: List[Violation] = []
    look = sys_.lookup(state.sigma)
    cur = look(x)
    if not leq(val, cur):
        out.append(Violation(x, "value", f"rhs value {val!r} ⋢ σ {cur!r}"))
    for g, d in es.sides.items():
        tgt = look(g)
        if not leq(d, tgt):
            out.append(Violation(g, "side", f"contribution {d!r} from {x!r} ⋢ σ {tgt!r}"))
    return out


def verify_solution(sys_: EqSys, state: SolverState,
                    unknowns: Optional[Iterable[Unknown]] = None) -> List[Violation]:
    """Check the partial postsolution at `unknowns` (default: all stable ones)."""
    assert not state.called, "verify_solution requires a state at rest"
    look = sys_.lookup(state.sigma)
    out: List[Violation] = []
    for x in sorted(state.stable if unknowns is None else unknowns, key=sort_key):
        tree = sys_.rhs(x)
        if tree is not None:
            out.extend(check_unknown(sys_, state, x, *eval_tree(tree, look)))
    return out


# ---------------------------------------------------------------------------
# Persistence: the solver section of a journal record (see `journal`).  A
# record holds the rows of σ, of the maps and of the sets that differ
# between what the state was when a reanalysis began (`tables`) and the
# state, and the keys of the rows that went: of the rows that each table's
# log holds, those whose row differs now.  Every unknown it mentions is
# written once, into "unknowns" (sorted by sort_key), and every distinct
# value of σ once, into "values" (in order of first use); the rows refer to
# both by index.  The section has no format number of its own: the bundle's
# format covers it.  called is not persisted: it is empty at rest.  A record
# that names a table the state does not have is refused.
# ---------------------------------------------------------------------------

MAPS = ("infl", "side_dep", "side_infl")  # unknown -> its members, in order
SETS = ("stable", "point")
TABLES = (*SETS, "sigma", *MAPS)  # the order of a record's "gone" members


def tables(state: SolverState) -> Dict[str, int]:
    """Start the log of each table of `state` as a reanalysis begins (None
    for an empty table, whose rows will all be new) and return its
    counters.  A log holds each row that the table's methods write from now
    on, as it was, until the record is written."""
    for name in TABLES:
        table = getattr(state, name)
        table.log = {} if table else None
    return {"rhs_evals": state.rhs_evals, "destabilizations": state.destabilizations}


def state_to_json(then: dict, state: SolverState) -> Iterator[Tuple[str, object]]:
    """The solver section of the record that turns `state` as it was when
    `tables` returned `then`, its counters, into `state`, which is read in
    place, as (member, JSON value) pairs; with an empty `then`, the section
    of a base, in which every row is new.  It ends the tables' logs.  Of a
    table with a log, the logged rows that differ now are visited (σ's by
    the identity of the value, as a value the run did not touch is still
    the object it was); without a log every row is new.

    The rows that differ are found when it is called.  The section is
    written as it is built: the "unknowns" and "values" arrays are `map`s
    encoded element by element, and "put" is an iterator of its members,
    each built when the writer reaches it (see `journal.write_json`)."""
    put: Dict[str, object] = {}
    gone: Dict[str, object] = {}
    mentioned: set = set()
    for name in TABLES:
        table = getattr(state, name)
        log, table.log = table.log if then else None, None
        gone[name] = () if log is None else \
            [u for u, was in log.items() if was is not None and u not in table]
        if log is None:  # every row is new: the table stands for its keys
            put[name] = table
        elif name in SETS:
            put[name] = [u for u, was in log.items() if was is None and u in table]
        elif name == "sigma":
            put[name] = [u for u, was in log.items() if u in table and table[u] is not was]
        else:
            put[name] = [u for u, was in log.items() if u in table and tuple(table[u]) != was]
        mentioned.update(put[name], gone[name])  # no map's row is empty at rest
        if name in MAPS:
            for u in put[name]:
                mentioned.update(table[u])
    unknowns = sorted(mentioned, key=sort_key)
    del mentioned
    index = {u: i for i, u in enumerate(unknowns)}
    values: Dict[Value, int] = {}
    # σ is encoded first: it numbers the values
    sigma = [[i, values.setdefault(state.sigma[unknowns[i]], len(values))]
             for i in sorted(index[u] for u in put["sigma"])]
    counters = {"rhs_evals": state.rhs_evals, "destabilizations": state.destabilizations}
    counters = None if then == counters else counters
    gone = {name: sorted(index[u] for u in keys) for name, keys in gone.items() if keys}
    return _members(unknowns, values, _put_rows(state, put, index, sigma, counters), gone)


def _members(unknowns: List[Unknown], values: Dict[Value, int], put: Iterator,
             gone: dict) -> Iterator[Tuple[str, object]]:
    """The members of `state_to_json`'s section, each dropped once written."""
    yield "unknowns", map(unknown_to_json, unknowns)
    del unknowns
    yield "values", map(value_to_json, values)
    del values
    yield "put", put
    del put
    yield "gone", gone


def _put_rows(state: SolverState, put: dict, index: Dict[Unknown, int], sigma: list,
              counters: Optional[dict]) -> Iterator[Tuple[str, object]]:
    """The "put" member of `state_to_json`: the non-empty tables of rows,
    σ's already encoded (`sigma`), each map's built as it is reached, each
    dropped once it is written."""
    if sigma:
        yield "sigma", sigma
    del sigma
    for name in MAPS:
        rows = getattr(state, name)
        out = sorted(([index[u], [index[v] for v in rows[u]]] for u in put[name]),
                     key=itemgetter(0))
        if out:
            yield name, out
        del out
    for name in SETS:
        out = sorted(index[u] for u in put[name])
        if out:
            yield name, out
    if counters is not None:
        yield "counters", counters


def state_from_json(state: SolverState, doc: dict) -> Optional[dict]:
    """Apply the solver section `doc` of a record to `state`, in place,
    except its counters, which are returned (None if there are none).  The
    "unknowns" and "values" lists are taken out of `doc` as they are
    decoded, so their parsed JSON is freed before the rows are applied.
    ValueError for a table it does not know and for a row with a negative
    index, which a list would read from its end."""
    put, gone = doc["put"], doc["gone"]
    unknown = sorted(set(put).union(gone).difference(("sigma", "counters", *MAPS, *SETS)))
    if unknown:
        raise ValueError(f"unknown solver table {unknown[0]!r}")
    contexts: Dict[str, Context] = {}
    unknowns = [unknown_from_json(d, contexts) for d in doc.pop("unknowns")]
    values = [value_from_json(d) for d in doc.pop("values")]
    for name, keys in [*gone.items(), *((name, put.get(name)) for name in SETS)]:
        if keys and min(keys) < 0:
            raise ValueError(f"a row of {name} has a negative index")
    sigma = state.sigma
    for i in gone.get("sigma", ()):
        sigma.pop(unknowns[i])
    for i, v in put.get("sigma", ()):
        if i < 0 or v < 0:
            raise ValueError("a row of sigma has a negative index")
        sigma[unknowns[i]] = values[v]
    for name in MAPS:
        rows = getattr(state, name)
        for i in gone.get(name, ()):
            if rows.take(unknowns[i]) is None:
                raise KeyError(unknowns[i])
        for i, members in put.get(name, ()):
            if i < 0 or (members and min(members) < 0):
                raise ValueError(f"a row of {name} has a negative index")
            rows.put(unknowns[i], [unknowns[j] for j in members])
    for name in SETS:
        s = getattr(state, name)
        s.difference_update(unknowns[i] for i in gone.get(name, ()))
        for i in put.get(name, ()):
            s.add(unknowns[i])
    return put.get("counters")
