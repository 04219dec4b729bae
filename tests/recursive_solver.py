"""The TD solver as plain recursion: the reference for `tdsolver.Solver`.

`solve → eval → solve` nests one Python call chain per unknown being
solved, and the three re-solves of an unknown (not stable after its
evaluation; a widening point at a fixpoint, so narrow; a changed value that
left it unstable) are nested calls too.  `tdsolver.Solver` runs the same
steps on an explicit stack; the differential tests swap this class in for
it and require identical solver states and statistics.  Only systems whose
recursion fits the interpreter's default limit can be solved here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from minicheck import tdsolver
from minicheck.consys import AccCollector, Ans, EqSys, EvalError, QGet, QSet, Tree, Unknown
from minicheck.domains import Value, join, narrow, widen
from minicheck.tdsolver import Phase, SolverState


class RecursiveSolver:
    def __init__(self, sys_: EqSys, state: SolverState, restart_wpoint: bool = False):
        self.sys = sys_
        self.state = state
        self.restart_wpoint = restart_wpoint
        self._wpoint_restarts: Dict[Unknown, int] = {}
        self._rhs_cache: Dict[Unknown, Optional[Tree]] = {}
        self.evals_by_unknown: Dict[Unknown, int] = {}
        self.diagnostics: List[str] = []

    def _get(self, u: Unknown) -> Value:
        v = self.state.sigma.get(u)
        return self.sys.bot_of(u) if v is None else v

    def _rhs(self, u: Unknown) -> Optional[Tree]:
        if u in self._rhs_cache:
            return self._rhs_cache[u]
        t = self.sys.rhs(u)
        self._rhs_cache[u] = t
        return t

    def seed(self, s: Unknown, d: Value) -> None:
        cur = self._get(s)
        new = join(cur, d)
        st = self.state
        if new != cur:
            st.sigma[s] = new
            st.superstable.discard(s)
            st.destabilize(s)
        st.stable.add(s)

    def solve(self, phase: Phase, x: Unknown) -> None:
        st = self.state
        if x in st.stable or x in st.called:
            return
        st.stable.add(x)
        st.called.add(x)
        tmp = self._eval_rhs(x)
        st.called.discard(x)
        if x in st.point:
            cur = self._get(x)
            if phase is Phase.WIDEN:
                tmp = widen(cur, tmp)
            else:
                tmp = narrow(cur, tmp)
        if x not in st.stable:
            self.solve(Phase.WIDEN, x)
        elif self._get(x) == tmp:
            if phase is Phase.WIDEN and x in st.point:
                st.stable.discard(x)
                self.solve(Phase.NARROW, x)
                if self.restart_wpoint:
                    st.point.discard(x)
        else:
            st.sigma[x] = tmp
            st.destabilize(x)
            self.solve(phase, x)

    def _eval_rhs(self, x: Unknown) -> Value:
        st = self.state
        st.rhs_evals += 1
        self.evals_by_unknown[x] = self.evals_by_unknown.get(x, 0) + 1
        prev_sides = list(st.side_infl.get(x, ()))
        current: Dict[Unknown, None] = {}
        st.side_infl[x] = current
        t = self._rhs(x)
        if t is None:
            raise EvalError(x, "unknown has no right-hand side")
        while not isinstance(t, Ans):
            if isinstance(t, QGet):
                t = t.cont(self.eval(x, t.unknown))
            elif isinstance(t, QSet):
                self.side(x, t.unknown, t.value)
                t = t.rest
            else:
                raise TypeError(f"not a strategy tree node: {t!r}")
        value = t.value
        bot = self.sys.bot_of(x)
        if type(value) is not type(bot):
            raise EvalError(x, f"rhs produced {type(value).__name__}, expected {type(bot).__name__}")
        for g in prev_sides:
            if g not in current:
                m = st.side_dep.get(g)
                if m is not None:
                    m.pop(x, None)
                    if not m:
                        del st.side_dep[g]
        if not current:
            del st.side_infl[x]
        return value

    def eval(self, x: Unknown, y: Unknown) -> Value:
        st = self.state
        if y in st.called or self._rhs(y) is None:
            newly = y not in st.point
            st.point.add(y)
            if newly and self.restart_wpoint and y in st.called:
                self._restart_widening_point(y)
        else:
            self.solve(Phase.WIDEN, y)
        st.infl.setdefault(y, {})[x] = None
        return self._get(y)

    def _restart_widening_point(self, y: Unknown) -> None:
        st = self.state
        n = self._wpoint_restarts.get(y, 0)
        if n >= tdsolver.MAX_WPOINT_RESTARTS:
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
            cur = self._get(g)
            new = widen(cur, d)
            if new != cur:
                st.sigma[g] = new
                st.stable.add(g)
                st.destabilize(g)
        st.side_dep.setdefault(g, {})[x] = None
        st.side_infl.setdefault(x, {})[g] = None
