"""Everything between two program versions.

Change detection works at function granularity: it compares digests of
headers and of normalized bodies (ASTs with locations erased), so the old
version is known by its ``Program.digests`` alone.  Interior nodes of an
edited function get fresh ids, so their old unknowns simply become garbage;
entry and return nodes keep their ids.

An analysis from scratch is the reanalysis of the empty version (digests
``{"init": None, "functions": {}, "globals": []}``, no node ids, an empty
solver state): every function and the initializer are added, nothing is
destabilized or restarted, and the solver starts from nothing.

Two destabilization strategies:

* *plain* removes the return unknowns of edited functions from stable and
  transitively destabilizes everything they influence, up front;
* *reluctant* only removes the return unknowns themselves and re-solves them
  first; destabilization beyond a return node happens solely when its value
  actually changes.

An edit can rewrite right-hand sides outside the edited function: the
global declarations decide which names denote globals, and a call site
builds the callee's start state from the callee's locals.  So a function
that uses a name which became or stopped being a global counts as changed,
and both strategies restart the entry of an edited function in each
context whose start state lists other locals than the new version, which
re-evaluates the call sites, creation sites and harness that side-effect it.

Restarting resets selected flow-insensitive unknowns to Bot and destabilizes
all their producers, purging values accumulated across runs.  The minimal
strategy restarts exactly the globals that the old version of an edited
function side-effected (read off ``side_infl`` before relabeling).

After the solve, one walk over σ finds what is reachable from the query;
postprocessing shares its evaluations.  `reanalyze` returns σ and the stable
set as it found them (a `StartState`).  Given that snapshot, the walk reuses
an unknown that stayed stable through the run and at which, at whose last
reads and at whose side targets σ is unchanged since the run began: it is
not evaluated, and its recorded successors are the inverse of ``infl``
minus the stale edges the walk noted when it last evaluated it.  So the walk
evaluates only what the run touched.  The producers of an edited
function's entry are never reused, and after an edit of the global
declarations `reanalyze` returns no snapshot and the walk evaluates every
reached rhs.  Pruning drops the unknowns that left the reached set and the
rows that name them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .consys import (
    INIT,
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
from .domains import Value
from .minic.cfg import NodeAssignment, assign_node_ids
from .minic.syntax import Program, names_used
from .minic.system import BuiltSystem, build_system
from .tdsolver import SolverState, run

INIT_PSEUDO_FN = "__init"


@dataclass(frozen=True)
class StartState:
    """σ and the stable set as a reanalysis found them, before it changed
    anything, and the unknowns whose right-hand side the edit may have
    rewritten although their own function is unchanged; the post-solve walk
    compares against them.  Not persisted."""

    sigma: Dict[Unknown, Value]
    stable: Set[Unknown]
    rewritten: Set[Unknown]


@dataclass(frozen=True)
class ChangeSet:
    """Function-granularity diff between two program versions.

    The pseudo-function ``__init`` appears in `changed` when the global
    declarations (and hence the synthetic initializer) differ, and in
    `added` when the old version is the empty one.
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
    previous version.  A function whose digests are unchanged but that uses
    a name which was added to or removed from the globals is `changed`."""
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
    # A name that became or stopped being a global changes the right-hand
    # sides of every function that uses it, edited or not.
    redeclared = set(old["globals"]).symmetric_difference(new.digests["globals"])
    if redeclared:
        for name in [n for n in unchanged if not redeclared.isdisjoint(
                names_used(new.functions[n].body))]:
            unchanged.remove(name)
            changed.add(name)
    if old["init"] is None:
        added.add(INIT_PSEUDO_FN)
    elif old["init"] != new.digests["init"]:
        changed.add(INIT_PSEUDO_FN)
    else:
        unchanged.add(INIT_PSEUDO_FN)
    return ChangeSet(frozenset(changed), frozenset(header_changed), frozenset(added),
                     frozenset(removed), frozenset(unchanged))


def relabel_nodes(changes: ChangeSet, old: NodeAssignment,
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


def _restart_entries(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                     new: BuiltSystem, contexts: Dict[str, Set[Context]]) -> None:
    """Restart the entry of a body-changed function in every context whose
    start state lists other locals than the new version has.  The call
    sites, creation sites and harness that side-effect it build that state
    from the callee's locals, so their right-hand sides changed although
    their own functions did not."""
    for fn in sorted(changes.changed - {INIT_PSEUDO_FN}):
        entry, local_names = old_asg.assign[fn][0], set(new.cfgs[fn].locals)
        for u in sorted((NodeCtx(fn, entry, ctx) for ctx in contexts.get(fn, ())),
                        key=sort_key):
            s = st.sigma[u]
            if not s.is_bot() and s.env.as_dict().keys() != local_names:
                _restart(u, st)


def prepare_plain(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                  new: BuiltSystem) -> List[Unknown]:
    """Eager destabilization at the return nodes of every edited function.

    Returns the empty pre-solve list (step 1 is empty in plain mode)."""
    st.superstable = set(st.stable)
    _drop_obsolete_starts(st, new.sys)
    _drop_stale_nodes(changes, st, old_asg)
    contexts = recorded_contexts(st, old_asg)
    _restart_entries(changes, st, old_asg, new, contexts)
    for u in _return_unknowns(changes.edited(), contexts, old_asg):
        st.stable.discard(u)
        st.superstable.discard(u)
        st.destabilize(u)
    return []


def prepare_reluctant(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                      new: BuiltSystem) -> List[Unknown]:
    """Confined destabilization: body-changed functions contribute their
    return unknowns to the pre-solve set A without destabilizing their
    dependents.  Header-changed and removed functions are handled plainly
    (reluctance could only do work in vain there)."""
    st.superstable = set(st.stable)
    _drop_obsolete_starts(st, new.sys)
    _drop_stale_nodes(changes, st, old_asg)
    contexts = recorded_contexts(st, old_asg)
    _restart_entries(changes, st, old_asg, new, contexts)
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
    """Restart each global in `G`."""
    for g in sorted(G, key=sort_key):
        _restart(g, st)


def _restart(u: Unknown, st: SolverState) -> None:
    """Reset `u` to Bot, destabilize it, and force re-evaluation of every
    unknown that ever side-effected it."""
    st.sigma.pop(u, None)
    st.stable.discard(u)
    st.superstable.discard(u)
    st.destabilize(u)
    producers = list(st.side_dep.pop(u, ()))
    for x in producers:
        row = st.side_infl.get(x)
        if row is not None:
            row.pop(u, None)
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
              domain: str = "valueset", *,
              restart_wpoint: bool = False) -> Tuple[ChangeSet, BuiltSystem, dict,
                                                     Optional[StartState]]:
    """Bring `st`, the solver state of the program with `old_digests`, up to
    date with `new_prog`.

    `mode` is "plain" or "reluctant" destabilization; `restart` is "off" or
    "minimal"; `domain` is the integer value domain of `build_system`.  The
    restart set is read off the old state before relabeling erases the old
    unknowns.  Returns the change set, the new system, the solver's per-step
    statistics plus the keys of the restarted globals, and the state as the
    run found it (None when the walk must reuse nothing)."""
    changes = detect_changes(old_digests, new_prog)
    restarted = select_restart_globals(changes, st, old_asg) if restart == "minimal" else []
    built = build_system(new_prog, relabel_nodes(changes, old_asg, new_prog), domain)
    prepare = prepare_reluctant if mode == "reluctant" else prepare_plain
    # Global declarations also decide which targets of a pointer a store or
    # a dereference touches, in functions that do not name them, so after
    # an edit of them nothing is reused.
    start = None if INIT_PSEUDO_FN in changes.changed else \
        StartState(dict(st.sigma), set(st.stable), _entry_producers(changes, st, old_asg))
    pre_solve = prepare(changes, st, old_asg, built)
    restart_globals(restarted, st)
    stats = run(built.sys, st, pre_solve, restart_wpoint=restart_wpoint)
    stats["restarted"] = [unknown_key(g) for g in restarted]
    return changes, built, stats, start


def _entry_producers(changes: ChangeSet, st: SolverState,
                     old_asg: NodeAssignment) -> Set[Unknown]:
    """The call sites, creation sites and harness that side-effect the entry
    of an edited function: the start state they side-effect lists that
    function's locals, so their right-hand sides change with its body."""
    entries = {fn: old_asg.assign[fn][0] for fn in changes.changed | changes.header_changed
               if fn in old_asg.assign}
    out: Set[Unknown] = set()
    for u, producers in st.side_dep.items():
        if isinstance(u, NodeCtx) and entries.get(u.fn) == u.node:
            out.update(producers)
    return out


# ---------------------------------------------------------------------------
# Reachability and pruning
# ---------------------------------------------------------------------------


def reachable_set(sys_: EqSys, st: SolverState, visit: Optional[Callable] = None,
                  reuse: Optional[Callable] = None,
                  start: Optional[StartState] = None) -> Set[Unknown]:
    """Unknowns reachable from the query (and seeded starts) under σ: queried
    dependencies plus side-effect targets.

    Given `start`, the state the reanalysis that produced σ began with, a
    reached unknown is *reusable* when it is stable and superstable, its rhs
    is not among ``start.rewritten`` and σ is unchanged, by identity since
    `start`, at itself, at every unknown its last evaluation read and at
    every global it side-effected.  Its rhs is not evaluated: the walk
    follows those recorded successors and hands it to `reuse(u)` if it has
    a rhs.  Every other reached rhs is evaluated purely, once; `visit(u,
    eval_state, value)` sees that evaluation, with its access records, and
    ``st.stale`` records the ``infl`` edges it did not read.  Reuse
    presumes that the state `start` records was left by a verified walk, as
    every persisted state is; without `start` every reached rhs is
    evaluated."""
    sigma = st.sigma
    look = sys_.lookup(sigma)
    reads: Dict[Unknown, List[Unknown]] = {}  # the inverse of infl
    for y, xs in st.infl.items():
        for x in xs:
            reads.setdefault(x, []).append(y)
    reusable = set()
    if start is not None and start.sigma:
        before = start.sigma
        # Not reusable: what changed, what read it last and what side-effected it.
        dirty = {u for u, v in sigma.items() if before.get(u) is not v}
        dirty |= before.keys() - sigma.keys()
        for y in list(dirty):
            dirty.update(x for x in st.infl.get(y, ()) if y not in st.stale.get(x, ()))
            dirty.update(st.side_dep.get(y, ()))
        reusable = (st.superstable & st.stable) - dirty - start.rewritten
    seeds = [sys_.query] + sorted(st.starts, key=sort_key) + sorted(sys_.starts, key=sort_key)
    reached: Set[Unknown] = set()
    stack = list(reversed(seeds))
    while stack:
        u = stack.pop()
        if u in reached:
            continue
        reached.add(u)
        if u in reusable:
            if reuse is not None and sys_.has_rhs(u):
                reuse(u)
            stale = st.stale.get(u, ())
            stack.extend(y for y in reads.get(u, ()) if y not in reached and y not in stale)
            stack.extend(g for g in st.side_infl.get(u, ()) if g not in reached)
            continue
        tree = sys_.rhs(u)
        if tree is None:
            continue
        es, value = eval_tree(tree, look)
        if visit is not None:
            visit(u, es, value)
        last = reads.get(u, ())
        # A stable unknown's reads all have infl edges: equal counts, none stale.
        stale = [y for y in last if y not in es.queried] \
            if len(last) != len(es.queried) or u not in st.stable else ()
        if stale:
            st.stale[u] = dict.fromkeys(stale)
        else:
            st.stale.pop(u, None)
        for y in es.queried:
            if y not in reached:
                stack.append(y)
        for g in es.sides:
            if g not in reached:
                stack.append(g)
    return reached


def prune(sys_: EqSys, st: SolverState, reachable: Optional[Set[Unknown]] = None) -> None:
    """Drop every unknown not reachable from the query from all solver maps,
    touching only the unknowns that left and the rows that name them."""
    R = reachable_set(sys_, st) if reachable is None else reachable
    maps = (st.infl, st.side_dep, st.side_infl, st.stale)
    left = st.sigma.keys() | st.stable | st.superstable | st.point
    for m in maps:
        left |= m.keys()
        left.update(*m.values())
    left -= R
    if not left:
        return
    for u in left:
        st.sigma.pop(u, None)
        st.stable.discard(u)
        st.superstable.discard(u)
        st.point.discard(u)
        for m in maps:
            m.pop(u, None)
    for m in maps:
        for u in [u for u, members in m.items() if not left.isdisjoint(members)]:
            kept = {y: None for y in m[u] if y not in left}
            if kept:
                m[u] = kept
            else:
                del m[u]
