"""Demand-driven local fixpoint solver for side-effecting constraint systems.

``solve`` explores only the unknowns contributing to the queried one,
tracking influences as it goes.  Widening/narrowing phases are applied at
dynamically detected widening points (unknowns closing a dependency cycle,
and flow-insensitive leaves).  Side-effects widen the target's value and
destabilize its dependents.  The resulting ``SolverState`` is a *partial
post-solution*: re-evaluating any stable unknown under σ stays below its
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
from typing import Dict, Iterable, List, Optional

from .consys import (
    AccCollector,
    Ans,
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
    unknown_key,
    unknown_to_json,
)
from .domains import (
    Value,
    join,
    leq,
    narrow,
    value_from_json,
    value_to_json,
    widen,
)

STATE_FORMAT = 2


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


class SolverState:
    """Mutable solver data, persistent between runs.

    ``infl``, ``side_dep`` and ``side_infl`` are insertion-ordered sets
    (dicts with None values); destabilization iterates ``infl`` in recorded
    order, which keeps counters and warning output reproducible.
    """

    def __init__(self):
        self.sigma: Dict[Unknown, Value] = {}
        self.infl: Dict[Unknown, Dict[Unknown, None]] = {}
        self.stable: set = set()
        self.called: set = set()
        self.point: set = set()
        self.side_dep: Dict[Unknown, Dict[Unknown, None]] = {}
        self.side_infl: Dict[Unknown, Dict[Unknown, None]] = {}
        self.superstable: set = set()
        self.starts: Dict[Unknown, Value] = {}
        self.rhs_evals = 0
        self.destabilizations = 0

    def destabilize(self, x: Unknown) -> None:
        """Transitively remove everything influenced by `x` from stable and
        superstable, clearing the visited influence sets.  Recursion stops at
        unknowns currently being solved."""
        stack = [x]
        while stack:
            u = stack.pop()
            self.destabilizations += 1
            w = self.infl.pop(u, None)
            if not w:
                continue
            targets = list(w)
            for y in targets:
                self.stable.discard(y)
                self.superstable.discard(y)
            for y in reversed(targets):
                if y not in self.called:
                    stack.append(y)


class _Frame:
    """An unknown being solved: the tree node where its rhs stopped, the
    unknown it waits for there, and the side targets of its previous
    evaluation.  `drop_point` removes it from `point` when the frame
    finishes (localized widening, after its narrowing iteration)."""

    __slots__ = ("x", "phase", "node", "wait", "prev_sides", "drop_point")

    def __init__(self, x: Unknown, phase: Phase):
        self.x = x
        self.phase = phase
        self.node: Tree = None
        self.wait: Optional[Unknown] = None
        self.prev_sides: List[Unknown] = []
        self.drop_point = False


class Solver:
    def __init__(self, sys_: EqSys, state: SolverState, restart_wpoint: bool = False):
        self.sys = sys_
        self.state = state
        self.restart_wpoint = restart_wpoint
        self._wpoint_restarts: Dict[Unknown, int] = {}
        self._rhs_cache: Dict[Unknown, Optional[Tree]] = {}
        self.evals_by_unknown: Dict[Unknown, int] = {}  # this step's evaluations
        self.diagnostics: List[str] = []  # this run's widening-restart bound hits

    # -- σ and rhs access ---------------------------------------------------

    def _get(self, u: Unknown) -> Value:
        v = self.state.sigma.get(u)
        return self.sys.bot_of(u) if v is None else v

    def _rhs(self, u: Unknown) -> Optional[Tree]:
        if u in self._rhs_cache:
            return self._rhs_cache[u]
        t = self.sys.rhs(u)
        self._rhs_cache[u] = t
        return t

    # -- the TD machinery ---------------------------------------------------

    def seed(self, s: Unknown, d: Value) -> None:
        """Start unknowns get their initial value joined in and become stable."""
        cur = self._get(s)
        new = join(cur, d)
        st = self.state
        if new != cur:
            st.sigma[s] = new
            st.superstable.discard(s)
            st.destabilize(s)
        st.stable.add(s)

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
                st.infl.setdefault(y, {})[x] = None
                t = t.cont(self._get(y))
            while True:
                if isinstance(t, Ans):
                    self._finish(stack, f, t.value)
                    break
                if isinstance(t, QGet):
                    y = t.unknown
                    if y in st.called or self._rhs(y) is None:
                        newly = y not in st.point
                        st.point.add(y)
                        if newly and self.restart_wpoint and y in st.called:
                            self._restart_widening_point(y)
                    elif y not in st.stable:
                        f.node, f.wait = t, y
                        self._push(stack, y, Phase.WIDEN)
                        break
                    st.infl.setdefault(y, {})[x] = None
                    t = t.cont(self._get(y))
                elif isinstance(t, QSet):
                    self.side(x, t.unknown, t.value)
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
        f.prev_sides = list(st.side_infl.get(x, ()))
        st.side_infl[x] = {}
        f.node = self._rhs(x)
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
                m = st.side_dep.get(g)
                if m is not None:
                    m.pop(x, None)
                    if not m:
                        del st.side_dep[g]
        if not current:
            del st.side_infl[x]
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
        st = self.state
        bot = self.sys.bot_of(g)
        if type(d) is not type(bot):
            raise EvalError(g, f"side contribution of {type(d).__name__}, expected {type(bot).__name__}")
        if not isinstance(g, AccCollector):
            # Write-only collectors keep their bookkeeping but the value is
            # dropped during solving; postprocessing re-emits it.
            cur = self._get(g)
            new = widen(cur, d)
            if new != cur:
                st.sigma[g] = new
                st.stable.add(g)
                st.destabilize(g)
        st.side_dep.setdefault(g, {})[x] = None
        st.side_infl.setdefault(x, {})[g] = None


def run(sys_: EqSys, state: SolverState, pre_solve: Iterable[Unknown] = (), *,
        restart_wpoint: bool = False) -> dict:
    """Seed start unknowns, solve `pre_solve` in order, then the query.

    Returns per-step statistics: rhs-evaluation counts overall and by
    unknown (canonical keys), for the pre-solve step and the query step,
    and the run's diagnostics (widening-point restart bound hits).
    """
    solver = Solver(sys_, state, restart_wpoint)
    for s in sorted(sys_.starts, key=sort_key):
        solver.seed(s, sys_.starts[s])
    state.starts = dict(sys_.starts)
    for a in pre_solve:
        solver.solve(Phase.WIDEN, a)
    step1, solver.evals_by_unknown = solver.evals_by_unknown, {}
    solver.solve(Phase.WIDEN, sys_.query)
    step2 = solver.evals_by_unknown
    assert not state.called, "called set must be empty at rest"
    return {
        "step1_rhs_evals": sum(step1.values()),
        "step2_rhs_evals": sum(step2.values()),
        "step1_evals_by_unknown": {unknown_key(u): n for u, n in step1.items()},
        "step2_evals_by_unknown": {unknown_key(u): n for u, n in step2.items()},
        "diagnostics": solver.diagnostics,
    }


def check_unknown(sys_: EqSys, state: SolverState, x: Unknown, es: EvalState,
                  val: Value) -> List[Violation]:
    """Violations of the partial post-solution at stable `x`, given `(es, val)`,
    a pure evaluation of its rhs under σ: its value and side contributions
    (access collectors excepted; they are deferred) must stay below σ."""
    out: List[Violation] = []
    cur = state.sigma.get(x)
    cur = sys_.bot_of(x) if cur is None else cur
    if not leq(val, cur):
        out.append(Violation(x, "value", f"rhs value {val!r} ⋢ σ {cur!r}"))
    for g, d in es.sides.items():
        if isinstance(g, AccCollector):
            continue
        tgt = state.sigma.get(g)
        tgt = sys_.bot_of(g) if tgt is None else tgt
        if not leq(d, tgt):
            out.append(Violation(g, "side", f"contribution {d!r} from {x!r} ⋢ σ {tgt!r}"))
    return out


def verify_solution(sys_: EqSys, state: SolverState,
                    unknowns: Optional[Iterable[Unknown]] = None) -> List[Violation]:
    """Check the partial post-solution at `unknowns` (default: all stable ones)."""
    assert not state.called, "verify_solution requires a state at rest"
    look = sys_.lookup(state.sigma)
    out: List[Violation] = []
    for x in sorted(state.stable if unknowns is None else unknowns, key=sort_key):
        tree = sys_.rhs(x)
        if tree is not None:
            out.extend(check_unknown(sys_, state, x, *eval_tree(tree, look)))
    return out


# ---------------------------------------------------------------------------
# Persistence (format 2).  Every unknown is written once, into the table
# "unknowns" (sorted by sort_key), and every distinct value once, into
# "values" (in order of first use); the maps refer to both by index.
# superstable and called are not persisted: superstable is reconstructed
# when an incremental run begins, called is empty at rest.
# ---------------------------------------------------------------------------


def state_to_json(state: SolverState) -> dict:
    maps = (state.infl, state.side_dep, state.side_infl)
    unknowns = set(state.sigma) | state.stable | state.point | set(state.starts)
    for m in maps:
        for u, members in m.items():
            if members:
                unknowns.add(u)
                unknowns.update(members)
    table = sorted(unknowns, key=sort_key)
    index = {u: i for i, u in enumerate(table)}
    values: Dict[Value, int] = {}

    def pairs(m: Dict[Unknown, Value]) -> list:
        return [[i, values.setdefault(v, len(values))]
                for i, v in sorted(((index[u], v) for u, v in m.items()), key=itemgetter(0))]

    def omap(m: Dict[Unknown, Dict[Unknown, None]]) -> list:
        return sorted(([index[u], [index[v] for v in members]]
                       for u, members in m.items() if members), key=itemgetter(0))

    sigma, starts = pairs(state.sigma), pairs(state.starts)
    return {
        "format": STATE_FORMAT,
        "unknowns": [unknown_to_json(u) for u in table],
        "values": [value_to_json(v) for v in values],
        "sigma": sigma,
        "infl": omap(state.infl),
        "stable": sorted(index[u] for u in state.stable),
        "point": sorted(index[u] for u in state.point),
        "side_dep": omap(state.side_dep),
        "side_infl": omap(state.side_infl),
        "starts": starts,
        "counters": {
            "rhs_evals": state.rhs_evals,
            "destabilizations": state.destabilizations,
        },
    }


def state_from_json(doc: dict) -> SolverState:
    if doc.get("format") != STATE_FORMAT:
        raise ValueError(f"unsupported solver state format: {doc.get('format')!r}")
    unknowns = [unknown_from_json(d) for d in doc["unknowns"]]
    values = [value_from_json(d) for d in doc["values"]]

    def from_omap(m: list) -> Dict[Unknown, Dict[Unknown, None]]:
        return {unknowns[u]: dict.fromkeys(unknowns[v] for v in members)
                for u, members in m}

    st = SolverState()
    st.sigma = {unknowns[u]: values[v] for u, v in doc["sigma"]}
    st.infl = from_omap(doc["infl"])
    st.stable = {unknowns[u] for u in doc["stable"]}
    st.point = {unknowns[u] for u in doc["point"]}
    st.side_dep = from_omap(doc["side_dep"])
    st.side_infl = from_omap(doc["side_infl"])
    st.starts = {unknowns[u]: values[v] for u, v in doc["starts"]}
    st.rhs_evals = doc["counters"]["rhs_evals"]
    st.destabilizations = doc["counters"]["destabilizations"]
    return st
