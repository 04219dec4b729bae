"""Everything between two program versions.

Change detection works at function granularity: it compares digests of
headers and of normalized bodies (ASTs with locations erased), so the old
version is known by its ``Program.digests`` alone.  Interior nodes of an
edited function get fresh ids, so their old unknowns simply become garbage;
entry and return nodes keep their ids.

Two destabilization strategies:

* *plain* removes the return unknowns of edited functions from stable and
  transitively destabilizes everything they influence, up front;
* *reluctant* only removes the return unknowns themselves and re-solves them
  first; destabilization beyond a return node happens solely when its value
  actually changes.

Restarting resets selected flow-insensitive unknowns to Bot and destabilizes
all their producers, purging values accumulated across runs.  The minimal
strategy restarts exactly the globals that the old version of an edited
function side-effected (read off ``side_infl`` before relabeling).

Pruning drops everything no longer reachable from the query; postprocessing
shares the evaluations of that one pure walk over σ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .consys import (
    INIT,
    AccCollector,
    Context,
    EqSys,
    GlobalVar,
    InitMarker,
    NodeCtx,
    Unknown,
    eval_tree,
    sort_key,
    unknown_key,
)
from .minic.cfg import NodeAssignment, assign_node_ids
from .minic.syntax import Program
from .minic.system import AnalysisConfig, BuiltSystem, build_system
from .tdsolver import SolverState, run

INIT_PSEUDO_FN = "__init"


@dataclass(frozen=True)
class ChangeSet:
    """Function-granularity diff between two program versions.

    The pseudo-function ``__init`` appears in `changed` when the global
    declarations (and hence the synthetic initializer) differ.
    """

    changed: frozenset
    header_changed: frozenset
    added: frozenset
    removed: frozenset
    unchanged: frozenset

    def edited(self) -> frozenset:
        return self.changed | self.header_changed | self.removed

    def to_json(self) -> dict:
        return {
            "changed": sorted(self.changed),
            "header_changed": sorted(self.header_changed),
            "added": sorted(self.added),
            "removed": sorted(self.removed),
            "unchanged": sorted(self.unchanged),
        }


def detect_changes(old: dict, new: Program) -> ChangeSet:
    """Diff `new` against `old`, the digests (``Program.digests``) of the
    previous version."""
    changed, header_changed, added, removed, unchanged = set(), set(), set(), set(), set()
    old_fns, new_fns = old["functions"], new.digests["functions"]
    for name, (header, body) in new_fns.items():
        if name not in old_fns:
            added.add(name)
        elif old_fns[name][0] != header:
            header_changed.add(name)
        elif old_fns[name][1] == body:
            unchanged.add(name)
        else:
            changed.add(name)
    for name in old_fns:
        if name not in new_fns:
            removed.add(name)
    if old["init"] != new.digests["init"]:
        changed.add(INIT_PSEUDO_FN)
    else:
        unchanged.add(INIT_PSEUDO_FN)
    return ChangeSet(frozenset(changed), frozenset(header_changed), frozenset(added),
                     frozenset(removed), frozenset(unchanged))


def relabel_nodes(changes: ChangeSet, old: Optional[NodeAssignment],
                  new_prog: Program) -> NodeAssignment:
    """Node identities for the new version: unchanged functions keep all ids,
    edited ones keep entry/return ids, everything else is fresh."""
    reuse_all = set(changes.unchanged)
    reuse_endpoints = set(changes.changed | changes.header_changed)
    reuse_endpoints.discard(INIT_PSEUDO_FN)
    return assign_node_ids(new_prog, old, reuse_all, reuse_endpoints)


# ---------------------------------------------------------------------------
# Destabilization strategies
# ---------------------------------------------------------------------------


def recorded_contexts(st: SolverState, asg: NodeAssignment) -> Dict[str, Set[Context]]:
    """The contexts each function was analyzed in, read off σ in one pass.

    Entry nodes get values only by side-effects from call and creation
    sites, which are never Bot, so every context in which any node of a
    function was solved has its entry unknown in σ."""
    entries = {fn: ids[0] for fn, ids in asg.assign.items() if ids}
    out: Dict[str, Set[Context]] = {}
    for u in st.sigma:
        if isinstance(u, NodeCtx) and entries.get(u.fn) == u.node:
            out.setdefault(u.fn, set()).add(u.ctx)
    return out


def _return_unknowns(changes_fns: Iterable[str], contexts: Dict[str, Set[Context]],
                     old_asg: NodeAssignment) -> List[Unknown]:
    out: List[Unknown] = []
    for fn in changes_fns:
        if fn == INIT_PSEUDO_FN:
            out.append(INIT)
        elif fn in old_asg.assign:
            ret = old_asg.assign[fn][-1]
            out.extend(NodeCtx(fn, ret, ctx) for ctx in contexts.get(fn, ()))
    out.sort(key=sort_key)
    return out


def _drop_obsolete_starts(st: SolverState, new_sys: EqSys) -> None:
    """Start unknowns of the previous run that the new version no longer
    seeds are destabilized and dropped."""
    for s in sorted(st.starts, key=sort_key):
        if s not in new_sys.starts:
            st.destabilize(s)
            st.stable.discard(s)
            st.superstable.discard(s)
            st.sigma.pop(s, None)
            del st.starts[s]


def _drop_stale_nodes(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment) -> None:
    """Unknowns of interior nodes of edited functions (and all nodes of
    removed ones) no longer exist in the new system; drop them from stable
    and superstable.  Their σ entries are garbage until pruning."""
    stale: Set[Tuple[str, int]] = set()
    for fn in changes.changed | changes.header_changed:
        ids = old_asg.assign.get(fn)
        if ids:
            stale.update((fn, n) for n in ids[1:-1])
    for fn in changes.removed:
        ids = old_asg.assign.get(fn)
        if ids:
            stale.update((fn, n) for n in ids)
    if not stale:
        return
    for coll in (st.stable, st.superstable):
        for u in [u for u in coll if isinstance(u, NodeCtx) and (u.fn, u.node) in stale]:
            coll.discard(u)


def prepare_plain(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                  new_sys: EqSys) -> List[Unknown]:
    """Eager destabilization at the return nodes of every edited function.

    Returns the empty pre-solve list (step 1 is empty in plain mode)."""
    st.superstable = set(st.stable)
    _drop_obsolete_starts(st, new_sys)
    _drop_stale_nodes(changes, st, old_asg)
    for u in _return_unknowns(changes.edited(), recorded_contexts(st, old_asg), old_asg):
        st.stable.discard(u)
        st.superstable.discard(u)
        st.destabilize(u)
    return []


def prepare_reluctant(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                      new_sys: EqSys) -> List[Unknown]:
    """Confined destabilization: body-changed functions contribute their
    return unknowns to the pre-solve set A without destabilizing their
    dependents.  Header-changed and removed functions are handled plainly
    (reluctance could only do work in vain there)."""
    st.superstable = set(st.stable)
    _drop_obsolete_starts(st, new_sys)
    _drop_stale_nodes(changes, st, old_asg)
    contexts = recorded_contexts(st, old_asg)
    for u in _return_unknowns(changes.header_changed | changes.removed, contexts, old_asg):
        st.stable.discard(u)
        st.superstable.discard(u)
        st.destabilize(u)
    A = _return_unknowns(changes.changed, contexts, old_asg)
    for u in A:
        st.stable.discard(u)
        st.superstable.discard(u)
    return A


# ---------------------------------------------------------------------------
# Restarting flow-insensitive unknowns
# ---------------------------------------------------------------------------


def select_restart_globals(changes: ChangeSet, st: SolverState,
                           old_asg: NodeAssignment) -> List[Unknown]:
    """Globals side-effected by the *old* version of every edited function,
    read off side_infl before relabeling erases the old unknowns."""
    edited = changes.edited()
    old_nodes: Dict[str, Set[int]] = {
        fn: set(old_asg.assign[fn]) for fn in edited
        if fn != INIT_PSEUDO_FN and fn in old_asg.assign
    }
    out = set()
    for x, gs in st.side_infl.items():
        if isinstance(x, NodeCtx) and x.node in old_nodes.get(x.fn, ()):
            out |= {g for g in gs if isinstance(g, GlobalVar)}
        elif isinstance(x, InitMarker) and INIT_PSEUDO_FN in edited:
            out |= {g for g in gs if isinstance(g, GlobalVar)}
    return sorted(out, key=sort_key)


def restart_globals(G: Iterable[Unknown], st: SolverState) -> None:
    """Reset each global to Bot, destabilize it, and force re-evaluation of
    every unknown that ever side-effected it."""
    for g in sorted(G, key=sort_key):
        st.sigma.pop(g, None)
        st.stable.discard(g)
        st.superstable.discard(g)
        st.destabilize(g)
        producers = list(st.side_dep.pop(g, ()))
        for x in producers:
            row = st.side_infl.get(x)
            if row is not None:
                row.pop(g, None)
                if not row:
                    del st.side_infl[x]
        for x in producers:
            st.stable.discard(x)
            st.superstable.discard(x)
            st.destabilize(x)


# ---------------------------------------------------------------------------
# Reanalysis driver
# ---------------------------------------------------------------------------


def reanalyze(old_digests: dict, old_asg: NodeAssignment, st: SolverState,
              new_prog: Program, mode: str = "reluctant", restart: str = "minimal",
              config: Optional[AnalysisConfig] = None, *,
              restart_wpoint: bool = False) -> Tuple[ChangeSet, BuiltSystem, dict]:
    """Bring `st`, the solver state of the program with `old_digests`, up to
    date with `new_prog`.

    `mode` is "plain" or "reluctant" destabilization; `restart` is "off" or
    "minimal".  The restart set is read off the old state before relabeling
    erases the old unknowns.  Returns the change set, the new system and the
    solver's per-step statistics plus the keys of the restarted globals."""
    changes = detect_changes(old_digests, new_prog)
    restarted = select_restart_globals(changes, st, old_asg) if restart == "minimal" else []
    built = build_system(new_prog, relabel_nodes(changes, old_asg, new_prog), config)
    prepare = prepare_reluctant if mode == "reluctant" else prepare_plain
    pre_solve = prepare(changes, st, old_asg, built.sys)
    restart_globals(restarted, st)
    stats = run(built.sys, st, pre_solve, restart_wpoint=restart_wpoint)
    stats["restarted"] = [unknown_key(g) for g in restarted]
    return changes, built, stats


# ---------------------------------------------------------------------------
# Reachability and pruning
# ---------------------------------------------------------------------------


def reachable_set(sys_: EqSys, st: SolverState, visit: Optional[Callable] = None) -> Set[Unknown]:
    """Unknowns reachable from the query (and seeded starts) under σ: queried
    dependencies plus side-effect targets other than access collectors.  Each
    reached rhs is evaluated purely, once, in its postprocessing variant (it
    only adds access-collector sides); `visit(u, eval_state, value)` sees it."""
    look = sys_.lookup(st.sigma)
    seeds = [sys_.query] + sorted(st.starts, key=sort_key) + sorted(sys_.starts, key=sort_key)
    reached: Set[Unknown] = set()
    stack = list(reversed(seeds))
    while stack:
        u = stack.pop()
        if u in reached:
            continue
        reached.add(u)
        tree = sys_.rhs(u, postproc=True)
        if tree is None:
            continue
        es, value = eval_tree(tree, look)
        if visit is not None:
            visit(u, es, value)
        for y in es.queried:
            if y not in reached:
                stack.append(y)
        for g in es.sides:
            if not isinstance(g, AccCollector) and g not in reached:
                stack.append(g)
    return reached


def prune(sys_: EqSys, st: SolverState, reachable: Optional[Set[Unknown]] = None) -> None:
    """Drop every unknown not reachable from the query from all solver maps."""
    R = reachable_set(sys_, st) if reachable is None else reachable
    st.sigma = {u: v for u, v in st.sigma.items() if u in R}
    st.stable &= R
    st.superstable &= R
    st.point &= R

    def prune_map(m: Dict[Unknown, Dict[Unknown, None]]) -> Dict[Unknown, Dict[Unknown, None]]:
        out: Dict[Unknown, Dict[Unknown, None]] = {}
        for u, members in m.items():
            if u not in R:
                continue
            kept = {y: None for y in members if y in R}
            if kept:
                out[u] = kept
        return out

    st.infl = prune_map(st.infl)
    st.side_dep = prune_map(st.side_dep)
    st.side_infl = prune_map(st.side_infl)
