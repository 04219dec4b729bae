"""Everything between two program versions.

Change detection works at function granularity: it compares digests of
headers and of normalized bodies (ASTs with locations erased), so the old
version is known by its ``Program.digests`` alone.  Interior nodes of a
body-changed function get fresh ids, so their old unknowns simply become
garbage; entry and return nodes keep their ids.  A header-changed function
gets fresh ids for every node, like a removed one that was added again:
its entry and return values bind other names or types now.

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

A call site reads only its callee's header: the start state it
side-effects binds the parameters and ``ret``, and the callee binds its
other locals itself.  So an edit rewrites right-hand sides outside the
edited function in two cases only, and the functions that own them count as
changed: a function that uses a name which became or stopped being a global
(the global declarations decide which names denote globals), and a function
that calls or creates a header-changed function.

Restarting recomputes selected globals, purging values accumulated across
runs.  The minimal strategy restarts exactly the globals that the old
version of an edited function side-effected (read off ``side_infl`` before
relabeling).  The solver keeps each global's producers (``side_dep``), and
a stable producer's contribution is what a pure evaluation of its rhs
under σ side-effects.  So a restarted global is the widening of the
contributions of the producers the edit did not rewrite, each evaluated
purely: only if that differs from its value are its readers destabilized,
and the solver re-evaluates no producer.  A global with a producer whose
contribution may still carry the old value (it is not stable, or an edit
reaches it through ``infl``) is reset to Bot instead, with every producer
destabilized; so is every global after an edit of the global
declarations.  Once the solver has run, a kept contribution whose producer
is no longer reached from the query, or now contributes another value, is
one a reset would have dropped: its global is reset then, and the query
solved again.

`reanalyze` starts the log of the rows each table of the solver writes
(`tdsolver.tables`): σ, the sets and the maps each log a row, as it was,
the first time they write it.  It decides once, as the solve returns, what
the post-solve walk may reuse, from the logged rows that differ; pruning
extends the logs, and the save reads them (`journal`).  The *untouched*
unknowns were stable when the reanalysis began and are now, and the solver
did not evaluate them.  The *reusable* ones are untouched, and σ at them,
at their last reads and at their side targets is what it was; after an
edit of the global declarations none is.  After the solve, one walk over
σ finds what is reachable from the query; postprocessing sees its
evaluations as they are made.  The walk reuses the reusable unknowns it
reaches: they are not evaluated, and their recorded successors are the
inverse of ``infl`` plus their side targets: the solver only adds ``infl``
edges, and the walk drops those that its evaluation of an unknown does not
read.  So the walk evaluates only what the run touched.

A walk leaves what it reached, each unknown with its successors (`Reach`),
and the next walk starts from there: it evaluates the reached unknowns
that are not reusable, follows the new edges from the query through them
and through what it reaches for the first time, and re-checks, through the
predecessors the state records, only what the edges those unknowns lost
led to (dynamic reachability, after Ramalingam and Reps, TCS 1996).
Pruning then deletes the unknowns that left and the rows that name them,
found through the same predecessors and the run's reads, so a reanalysis
walks and prunes about what the solver touched.  An analysis starts from
the empty `Reach`; a state without one, loaded from a bundle, has it read
off the state before the run (`Reach.of`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, List, Optional, Set, Tuple

from .consys import (
    INIT,
    Context,
    EqSys,
    GlobalVar,
    NodeCtx,
    Unknown,
    eval_tree,
    sort_key,
    unknown_key,
)
from .domains import Value, widen
from .minic.cfg import NodeAssignment, assign_node_ids
from .minic.syntax import Program, names_used
from .minic.system import BuiltSystem, build_system
from .tdsolver import SolverState, run, tables

INIT_PSEUDO_FN = "__init"


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
    a name which was added to or removed from the globals, or that calls or
    creates a header-changed function, is `changed`."""
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
    # A name that became or stopped being a global, and a function whose
    # header changed, change the right-hand sides of every function that
    # uses the name, edited or not.
    redefined = set(old["globals"]).symmetric_difference(new.digests["globals"]) | header_changed
    if redefined:
        for name in [n for n in unchanged if not redefined.isdisjoint(
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
    body-changed ones keep entry/return ids, everything else is fresh."""
    reuse_all = set(changes.unchanged)
    reuse_endpoints = set(changes.changed)
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


def _return_unknowns(changes_fns: Iterable[str], contexts: Dict[str, Collection[Context]],
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


def _drop_old_nodes(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                    contexts: Dict[str, Collection[Context]]) -> None:
    """Unknowns of interior nodes of body-changed functions (and all nodes
    of header-changed and removed ones) no longer exist in the new system;
    drop them from stable.  Their σ entries are garbage until pruning.
    Each is one of the old nodes in one of the function's `contexts`."""
    for fn in changes.changed | changes.header_changed | changes.removed:
        ids = old_asg.assign.get(fn)
        ctxs = contexts.get(fn)
        if ids and ctxs:
            nodes = ids if fn in changes.header_changed or fn in changes.removed else ids[1:-1]
            st.stable.difference_update([NodeCtx(fn, n, c) for n in nodes for c in ctxs])


def prepare_plain(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                  contexts: Dict[str, Collection[Context]]) -> List[Unknown]:
    """Eager destabilization at the return nodes of every edited function,
    in the `contexts` each function was analyzed in (see
    `recorded_contexts`).

    Returns the empty pre-solve list (step 1 is empty in plain mode)."""
    _drop_old_nodes(changes, st, old_asg, contexts)
    for u in _return_unknowns(changes.edited(), contexts, old_asg):
        st.stable.discard(u)
        st.destabilize(u)
    return []


def prepare_reluctant(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                      contexts: Dict[str, Collection[Context]]) -> List[Unknown]:
    """Confined destabilization: body-changed functions contribute their
    return unknowns to the pre-solve set A without destabilizing their
    dependents.  Header-changed and removed functions are handled plainly
    (reluctance could only do work in vain there).  `contexts` as in
    `prepare_plain`."""
    _drop_old_nodes(changes, st, old_asg, contexts)
    for u in _return_unknowns(changes.header_changed | changes.removed, contexts, old_asg):
        st.stable.discard(u)
        st.destabilize(u)
    A = _return_unknowns(changes.changed, contexts, old_asg)
    st.stable.difference_update(A)
    return A


# ---------------------------------------------------------------------------
# Restarting flow-insensitive unknowns
# ---------------------------------------------------------------------------


def select_restart_globals(changes: ChangeSet, st: SolverState, old_asg: NodeAssignment,
                           contexts: Dict[str, Collection[Context]]
                           ) -> Dict[Unknown, Set[Unknown]]:
    """Globals side-effected by the *old* version of every edited function,
    read off side_infl before relabeling erases the old unknowns, sorted,
    each with the producers read there: the old unknowns of the edited
    functions, each old node in each of the function's `contexts`, and
    `INIT` after an edit of the global declarations."""
    edited = changes.edited()
    producers = [NodeCtx(fn, n, c) for fn in edited if fn in old_asg.assign
                 for n in old_asg.assign[fn] for c in contexts.get(fn, ())]
    if INIT_PSEUDO_FN in edited:
        producers.append(INIT)
    out: Dict[Unknown, Set[Unknown]] = {}
    for x in producers:
        for g in st.side_infl.get(x, ()):
            if isinstance(g, GlobalVar):
                out.setdefault(g, set()).add(x)
    return {g: out[g] for g in sorted(out, key=sort_key)}


def restart_globals(G: Dict[Unknown, Set[Unknown]], sys_: EqSys, st: SolverState,
                    roots: Iterable[Unknown] = ()) -> Dict[Unknown, List[Tuple[Unknown, Value]]]:
    """Recompute each global `g` of `G` from its producers' contributions.

    The producers `G[g]`, which the edit rewrote, are dropped; their new
    versions contribute when the solver re-evaluates them.  The others'
    contributions are what a pure evaluation of their rhs in `sys_`, the
    new system, side-effects to `g`: such a producer is stable, so no σ
    entry it read has changed since its last evaluation, and the edit did
    not rewrite its rhs.  They are widened from Bot in recorded order.
    Only if the result differs from σ(g) is it stored and are the readers
    of `g` destabilized; else σ(g) stays the same object.  No producer is
    destabilized.  Returns each global so restarted with the contributions
    it kept, for `confirm_restarts` to check once the solver has run.

    A remaining contribution may carry the old value of `g` when its
    producer is not stable or is influenced, through ``infl``, by a global
    of `G` or by `roots`, the unknowns step 1 re-solves (every other unknown
    an edit influences was destabilized before, so is not stable): in
    ``g = g + 1`` the contribution depends on `g` itself.  Such a global is
    reset to Bot instead, and every producer of it is destabilized.
    Side-effect edges are not followed: the reset does not refresh the
    unknowns a producer side-effects either.  After an edit of the global
    declarations (`INIT` is rewritten) every global of `G` is reset: the
    declarations decide which globals a store through a pointer writes, in
    functions that do not name them and so count as unchanged."""
    if not G:
        return {}
    if any(INIT in rewritten for rewritten in G.values()):
        for g in G:
            _reset(g, st)
        return {}
    kept_by_global: Dict[Unknown, List[Tuple[Unknown, Value]]] = {}
    look = sys_.lookup(st.sigma)
    influenced: Set[Unknown] = set()
    stack = [*G, *roots]
    while stack:
        u = stack.pop()
        if u not in influenced:
            influenced.add(u)
            stack.extend(st.infl.get(u, ()))
    for g, rewritten in G.items():
        producers = [x for x in st.side_dep.get(g, ()) if x not in rewritten]
        if any(x not in st.stable or x in influenced for x in producers):
            _reset(g, st)
            continue
        for x in rewritten:
            _drop_side(st, x, g)
        kept = kept_by_global[g] = [(x, _contribution(sys_, look, x, g)) for x in producers]
        new = None
        for _, d in kept:
            new = d if new is None else widen(new, d)
        if new == st.sigma.get(g):
            continue
        if new is None:
            st.sigma.pop(g)
            st.stable.discard(g)
        else:
            st.sigma[g] = new
            st.stable.add(g)
        st.destabilize(g)
    return kept_by_global


def confirm_restarts(kept: Dict[Unknown, List[Tuple[Unknown, Value]]], sys_: EqSys,
                     st: SolverState, asg: NodeAssignment,
                     reads: Dict[Unknown, Tuple[Unknown, ...]]) -> List[Unknown]:
    """The globals `restart_globals` recomputed from the contributions in
    `kept` that the solver's runs on `sys_` since, which evaluated the keys
    of `reads`, did not confirm: a kept producer that is no longer stable,
    that a run evaluated and whose pure evaluation now contributes another
    value or none, or that lies in a context that no stable unknown enters
    any more.  A full reset would have dropped such a contribution, as the
    producer is not re-evaluated or contributes anew.  A producer that no
    run evaluated and that is stable was stable throughout: what it read is
    as it was, and so is its contribution.  A context is entered from a
    producer of its entry (a call or creation site, or the query for
    `main`), and a producer in a context is stable and entered only if that
    context is; so a context is reached after the run just when a chain of
    stable producers leads to it from the query."""
    entered: Dict[Unknown, bool] = {}  # entry unknown -> whether the query reaches it
    look = sys_.lookup(st.sigma)

    def entry(x: NodeCtx) -> NodeCtx:
        return NodeCtx(x.fn, asg.assign[x.fn][0], x.ctx)

    def reaches(e: NodeCtx) -> bool:
        seen, stack = {e}, [e]
        while stack:
            for p in st.side_dep.get(stack.pop(), ()):
                if p not in st.stable:
                    continue
                if not isinstance(p, NodeCtx):  # the query
                    return True
                q = entry(p)
                if entered.get(q):
                    return True
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return False

    def confirmed(g: Unknown, x: Unknown, d: Value) -> bool:
        if x not in st.stable or (x in reads and _contribution(sys_, look, x, g) != d):
            return False
        if not isinstance(x, NodeCtx):  # the initializer
            return True
        e = entry(x)
        if e not in entered:
            entered[e] = reaches(e)
        return entered[e]

    return [g for g, contributions in kept.items()
            if not all(confirmed(g, x, d) for x, d in contributions)]


def _contribution(sys_: EqSys, look: Callable, x: Unknown, g: Unknown) -> Optional[Value]:
    """What a pure evaluation of `x`'s rhs under σ (`look`) side-effects
    to `g`, joined; None if it side-effects nothing there."""
    return eval_tree(sys_.rhs(x), look)[0].sides.get(g)


def _reset(g: Unknown, st: SolverState) -> None:
    """Reset `g` to Bot, destabilize it, and force re-evaluation of every
    unknown that ever side-effected it."""
    st.sigma.pop(g, None)
    st.stable.discard(g)
    st.destabilize(g)
    producers = list(st.side_dep.get(g, ()))
    for x in producers:
        _drop_side(st, x, g)
    for x in producers:
        st.stable.discard(x)
        st.destabilize(x)


def _drop_side(st: SolverState, x: Unknown, g: Unknown) -> None:
    """Forget that `x` side-effects `g`: `x` is no longer among the
    producers of `g`, nor `g` among its side targets."""
    st.side_dep.drop(g, x)
    st.side_infl.drop(x, g)


# ---------------------------------------------------------------------------
# Reanalysis driver
# ---------------------------------------------------------------------------


@dataclass
class Reuse:
    """What `reanalyze` decided, as the solve returned, for the post-solve
    walk (see the module docstring): the `untouched` and the `reusable`
    unknowns, every unknown the run evaluated with every unknown its
    evaluations read (`reads`), `changed`, the unknowns whose σ entry is
    not the object it was (set, replaced or removed), each mapped to itself
    as σ holds it (`Values.own`), and `start`, the solver's counters as the
    reanalysis began (`tdsolver.tables`), for the record."""

    untouched: Set[Unknown]
    reusable: Set[Unknown]
    reads: Dict[Unknown, Tuple[Unknown, ...]]
    changed: Dict[Unknown, Unknown]
    start: dict


def reanalyze(old_digests: dict, old_asg: NodeAssignment, st: SolverState,
              new_prog: Program, mode: str = "reluctant", restart: str = "minimal",
              domain: str = "valueset", *, restart_wpoint: bool = False,
              contexts: Dict[str, Collection[Context]]
              ) -> Tuple[ChangeSet, BuiltSystem, dict, Reuse]:
    """Bring `st`, the solver state of the program with `old_digests`, up to
    date with `new_prog`.

    `mode` is "plain" or "reluctant" destabilization; `restart` is "off" or
    "minimal"; `domain` is the integer value domain of `build_system`;
    `contexts` are the old version's `recorded_contexts`.  The restart set is
    looked up in the old state before relabeling erases the old unknowns.
    The tables of `st` log their writes from the start until the record.
    Returns the change set, the new system, the solver's per-step statistics
    plus the keys of the restarted globals, and what the walk may reuse."""
    start = tables(st)
    changes = detect_changes(old_digests, new_prog)
    restarted = select_restart_globals(changes, st, old_asg, contexts) \
        if restart == "minimal" else {}
    built = build_system(new_prog, relabel_nodes(changes, old_asg, new_prog), domain)
    prepare = prepare_reluctant if mode == "reluctant" else prepare_plain
    pre_solve = prepare(changes, st, old_asg, contexts)
    kept = restart_globals(restarted, built.sys, st, pre_solve)
    stats = run(built.sys, st, pre_solve, restart_wpoint=restart_wpoint)
    # A global whose kept contributions the run did not confirm is reset,
    # and the query solved again; that can leave others unconfirmed.
    unconfirmed = confirm_restarts(kept, built.sys, st, built.assignment, stats["reads"])
    while unconfirmed:
        for g in unconfirmed:
            del kept[g]
            _reset(g, st)
        again = run(built.sys, st, restart_wpoint=restart_wpoint)
        stats["step2_rhs_evals"] += again["step2_rhs_evals"]
        by_unknown = stats["step2_evals_by_unknown"]
        for u, n in again["step2_evals_by_unknown"].items():
            by_unknown[u] = by_unknown.get(u, 0) + n
        stats["diagnostics"] += again["diagnostics"]
        reads = stats["reads"]
        for x, ys in again["reads"].items():
            reads[x] = tuple(dict.fromkeys((*reads.get(x, ()), *ys)))
        unconfirmed = confirm_restarts(kept, built.sys, st, built.assignment, stats["reads"])
    stats["restarted"] = [unknown_key(g) for g in restarted]
    # Global declarations also decide which targets of a pointer a store or
    # a dereference touches, in functions that do not name them, so after an
    # edit of them nothing is reusable.
    reuse = decide_reuse(st, start, stats.pop("reads"), INIT_PSEUDO_FN not in changes.changed)
    return changes, built, stats, reuse


def decide_reuse(st: SolverState, start: dict, reads: Dict[Unknown, Tuple[Unknown, ...]],
                 allowed: bool = True) -> Reuse:
    """What the walk after a run may reuse (see the module docstring), as
    the run evaluated the keys of `reads`, each with what it read; nothing
    unless `allowed`.  It is read off the logs of σ and of `stable`, which
    `tables` started as the reanalysis began and returned `start`; the log
    of `stable` is cut down to the unknowns whose membership differs."""
    sigma, log = st.sigma, st.sigma.log
    changed = {u: u for u in sigma} if log is None else \
        {u: sigma.own(u) for u, was in log.items() if sigma.get(u) is not was}
    # An unknown with a rhs that left stable is stable again only once it is
    # evaluated.  (A global that left is stable again once it gets a new
    # contribution, but the walk follows nothing from a global.)
    stable, log = st.stable, st.stable.log
    if log is not None:
        log = stable.log = {u: was for u, was in log.items() if (u in stable) == (was is None)}
    untouched = set() if log is None else \
        stable.difference([u for u, was in log.items() if was is None], reads)
    reusable: Set[Unknown] = set()
    if untouched and allowed:
        # Not reusable: what changed, what read it last and what side-effected it.
        dirty = set(changed)
        for y in changed:
            dirty.update(st.infl.get(y, ()))
            dirty.update(st.side_dep.get(y, ()))
        reusable = untouched - dirty
    return Reuse(untouched, reusable, reads, changed, start)


# ---------------------------------------------------------------------------
# Reachability and pruning
# ---------------------------------------------------------------------------


@dataclass
class Reach:
    """What a walk found: every reached unknown with the unknowns the walk
    followed from it (what its rhs queried, then what it side-effected), the
    reached unknowns without a rhs and those that are not stable.  Its keys
    are the reached set; for a reached unknown with a rhs that is stable,
    its successors are the inverse of ``infl`` plus ``side_infl``, which
    the walk keeps exact (see `reachable_set`).  Not persisted: `of` reads
    it off a state that a walk and pruning left."""

    succ: Dict[Unknown, Tuple[Unknown, ...]]
    leaves: Set[Unknown]
    unstable: Set[Unknown]

    @staticmethod
    def of(st: SolverState, query: Unknown) -> "Reach":
        """The `Reach` of the walk that left `st`, before a run changes it
        (an empty one before an analysis), by the invariant above: what is
        reachable from `query` through those successors.  Its leaves are
        left for `find_leaves`, as only the new system knows them.  Each
        row of the inverse of ``infl`` is dropped as the walk reaches it, so
        that the inverse and the `Reach` are not held whole at once."""
        succ: Dict[Unknown, Tuple[Unknown, ...]] = {}
        if query not in st.stable:  # no walk left it
            return Reach(succ, set(), set())
        reads: Dict[Unknown, List[Unknown]] = {}
        for y, xs in st.infl.items():
            for x in xs:
                reads.setdefault(x, []).append(y)
        side_infl = st.side_infl
        stack = [query]
        while stack:
            u = stack.pop()
            if u in succ:
                continue
            out = succ[u] = (*reads.pop(u, ()), *side_infl.get(u, ()))
            stack.extend(y for y in out if y not in succ)
        return Reach(succ, set(), succ.keys() - st.stable)

    def find_leaves(self, sys_: EqSys) -> "Reach":
        """This `Reach` with its leaves: the reached unknowns without a rhs
        in `sys_`, the system after the edit, which differs from the one
        the walk ran on only at unknowns that are not reusable, so that the
        next walk evaluates them."""
        self.leaves = {u for u in self.succ if not sys_.has_rhs(u)}
        return self


@dataclass
class Walk:
    """What `reachable_set` returns: the new `Reach`; the unknowns that left
    the reached set or that the run made and the walk does not reach, each
    with the unknowns whose ``infl`` rows may name it; the reached reusable
    unknowns with a rhs, and the unknowns the walk evaluated, reused or
    re-checked."""

    reach: Reach
    left: Dict[Unknown, Tuple[Unknown, ...]]
    reused: Iterable[Unknown]
    walked: List[Unknown]


def reachable_set(sys_: EqSys, st: SolverState, visit: Optional[Callable], reuse: Reuse,
                  known: Reach) -> Walk:
    """Unknowns reachable from the query under σ: queried dependencies plus
    side-effect targets, found from what the last walk reached (`known`,
    which is taken over and updated in place).

    A reached unknown in ``reuse.reusable`` (see `reanalyze`) is not
    evaluated: the walk follows the successors its last evaluation
    recorded.  Every other reached rhs is evaluated purely, once;
    `visit(u, eval_state, value)` sees that evaluation as it is made, with
    its access records, and the ``infl`` edges to it that it did not read
    are dropped.  So a reached stable unknown is in the ``infl`` rows of
    exactly what it read when it was last evaluated.  An unknown evaluated
    so may still leave (`Walk.left`).
    Reuse presumes that the state the reanalysis began with was left by a
    verified walk and pruning, as every persisted state is, and that a
    reusable unknown's rhs is the one that walk evaluated: a rhs an edit
    rewrites belongs to a function counted as changed, whose rewritten
    nodes are new, or follows an edit of the global declarations, after
    which nothing is reusable.

    An unknown stays reached while a path of unchanged edges leads to it.
    So the non-reusable unknowns `known` holds are evaluated first.  From
    the query, the walk then follows the new edges through those and
    through what it reaches for the first time, which it evaluates: all of
    these are reached (`sure`).  The targets of the edges that the
    non-reusable unknowns no longer have, and what those led to then, may
    have lost their path (`lost`), unless they are sure.  One of them is
    reached again through a predecessor that still is (an ``infl`` edge or
    a ``side_dep`` producer), and from there the walk goes on as from
    nothing.  Whatever of `lost` it does not reach has left."""
    look = sys_.lookup(st.sigma)
    reusable, reads = reuse.reusable, reuse.reads
    succ, leaves, unstable = known.succ, known.leaves, known.unstable
    stable_log = st.stable.log  # the unknowns whose stable row differs (`decide_reuse`)

    def evaluate(u: Unknown, held: Tuple[Unknown, ...] = ()) -> Tuple[Unknown, ...]:
        """Evaluate `u`, whose successors were `held`, for `visit`, drop the
        ``infl`` edges to it that it did not read and return its
        successors."""
        tree = sys_.rhs(u)
        if tree is None:
            leaves.add(u)
            return ()
        leaves.discard(u)
        es, value = eval_tree(tree, look)
        if visit is not None:
            visit(u, es, value)
        # The infl rows that name u are among what it read before the run
        # and in it (which holds no unknown twice).  A stable unknown is in
        # the rows of all it reads: with no more candidates than reads, none
        # is dropped.
        run_reads = reads.get(u, ())
        candidates = dict.fromkeys((*held, *run_reads)) if held else run_reads
        if len(candidates) != len(es.queried) or u not in st.stable:
            for y in candidates:
                if y not in es.queried:
                    st.infl.drop(y, u)
        return _same_objects((*es.queried, *es.sides), held, reuse.changed)

    old: Dict[Unknown, Tuple[Unknown, ...]] = {}  # non-reusable unknown -> its old successors
    seeds: List[Unknown] = []
    # What was reached and is not reusable was not stable, was evaluated, has
    # a stable row that differs, or is untouched and not reusable.
    for u in itertools.chain(unstable, reuse.untouched - reusable, reads, stable_log or ()):
        if u in old or u in reusable or u not in succ:
            continue
        was = old[u] = succ[u]
        now = succ[u] = evaluate(u, was)
        seeds.extend(y for y in was if y not in now)
    sure: Set[Unknown] = set()
    stack = [sys_.query]
    while stack:
        v = stack.pop()
        if v in sure:
            continue
        sure.add(v)
        if v not in succ:
            out = succ[v] = evaluate(v)
        elif v in reusable:
            continue
        else:
            out = succ[v]
        stack.extend(y for y in out if y not in sure)
    lost: Set[Unknown] = set()
    while seeds:
        v = seeds.pop()
        if v not in lost and v not in sure and v in succ:
            lost.add(v)
            seeds.extend(old[v] if v in old else succ[v])
    gone = {v: succ.pop(v) for v in lost}  # each with its successors now
    stack = [y for u in old if u in succ for y in succ[u] if y not in succ]
    for v in lost:
        if any(v in succ.get(p, ()) for p in itertools.chain(st.infl.get(v, ()),
                                                               st.side_dep.get(v, ()))):
            stack.append(v)
    # A reusable unknown was reached before: what is sure and not reusable
    # was evaluated or followed.
    sure.difference_update(reusable)
    walked = sure
    walked.update(old, lost)
    while stack:
        v = stack.pop()
        if v in succ:
            continue
        walked.add(v)
        out = gone.pop(v, None)
        succ[v] = evaluate(v) if out is None else out
        stack.extend(y for y in succ[v] if y not in succ)
    # What left, with the unknowns whose infl rows may name it: its
    # successors when the last walk reached it and when it left (an
    # unknown whose rhs went is not evaluated, so keeps its edges), or, if
    # the last walk did not reach it, what the run read.  Every other row
    # that the run wrote names what it evaluated or read, σ differs from
    # what it was only at `reuse.changed`, and an unknown stable now that
    # was not then is in the log of stable, or is any if there is none.
    left = {v: (*old.get(v, ()), *out) for v, out in gone.items()}
    for y in itertools.chain(reads, *reads.values(), reuse.changed,
                             st.stable if stable_log is None else stable_log):
        if y not in succ and y not in left:
            left[y] = reads.get(y, ())
    leaves.difference_update(left)
    known.unstable = {u for u in itertools.chain(unstable, walked)
                      if u not in st.stable and u in succ}
    # The reusable unknowns were reached, and stay so unless they left.
    return Walk(known, left, reusable.difference(left, leaves), list(walked))


def _same_objects(found: Tuple[Unknown, ...], held: Tuple[Unknown, ...],
                  keys: Dict[Unknown, Unknown]) -> Tuple[Unknown, ...]:
    """`found`, the successors an evaluation found, each as the object
    `held` holds, else as `keys` maps it to, if either has it.  A `Reach`
    holds the objects that σ holds, not the evaluations' copies of them,
    which would otherwise outlive the evaluation."""
    if found == held:
        return held
    same = dict(zip(held, held))
    return tuple(same.get(y) or keys.get(y, y) for y in found)


def prune(st: SolverState, left: Dict[Unknown, Tuple[Unknown, ...]]) -> None:
    """Drop every unknown of `left` (see `reachable_set`), which holds every
    unknown of the state that is not reached, each with the unknowns whose
    ``infl`` rows may name it, from σ, the sets and the maps.  Only those
    and the rows that name them are visited: those ``infl`` rows, and the
    ``side_dep`` and ``side_infl`` rows of its side targets and producers.
    A row whose key left goes, and a row that names one that left keeps its
    other members, in order.  Like every writer of the tables, it logs what
    it removes through their methods."""
    infl, side_dep, side_infl = st.infl, st.side_dep, st.side_infl
    for v, read in left.items():
        st.sigma.pop(v, None)
        st.stable.discard(v)
        st.point.discard(v)
        for y in read:
            infl.drop(y, v)
        for g in side_infl.get(v, ()):
            side_dep.drop(g, v)
        for x in side_dep.get(v, ()):
            side_infl.drop(x, v)
    for v in left:
        infl.take(v)
        side_dep.take(v)
        side_infl.take(v)
