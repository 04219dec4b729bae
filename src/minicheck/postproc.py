"""Incremental postprocessing: access records, warnings, warning reuse.

Warnings are generated only after solving has finished (widening can
introduce spurious values that narrowing later removes, so generating them
mid-solve would overreport).  The reachability walk evaluates a reached rhs
at most once; that evaluation verifies the unknown and yields the access
records its rhs emits.  An unknown the walk reuses instead (one that
`increment.reanalyze` found reusable: it stayed stable throughout the run,
and σ at it, at its last reads and at its side targets is unchanged) keeps
the previous run's check and access records: they were made at exactly
these inputs, and a state is only persisted after a run whose check
passed.  A reanalysis trusts that premise for a loaded bundle too: it
re-verifies what it evaluates, not the untouched parts of the state it
loaded.  Access records are kept per producer, the unknown whose rhs
emitted them; the new store holds the records of the reached producers
only, so stale data-race evidence cannot accumulate across reanalyses.

The warnings are kept in memory too (`PostIndex`): each function's
dead-code and unsound-store warnings, and each global's race warning.  A
function's are made anew only if it owns an unknown whose σ entry changed,
came or went, or it has a new CFG (edited, or moved, which changes its
locations); a global's only if its access records changed or a function
that accesses it has a new CFG.  A store without an index, loaded or
empty, has one read off its state and records (`PostIndex.of`), in which
every CFG is new; so are all of them when the file name changed.

Warning identity hashes the kind, the provenance unknowns and a message
skeleton, never source locations: moved-but-unchanged code keeps its warning
id while the reported locations are refreshed from the current CFG.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .consys import Context, NodeCtx, Unknown, unknown_key
from .domains import Access, AddressSet, LocalState, Lockset
from .increment import Reach, Reuse, prune, reachable_set
from .minic.cfg import FuncCFG, NodeAssignment
from .minic.syntax import Store
from .minic.system import BuiltSystem
from .tdsolver import SolverState, Violation, check_unknown, verify_solution


class StateCorruption(Exception):
    pass


@dataclass(frozen=True)
class Warning:
    id: str
    kind: str  # "race" | "unsound-store" | "dead-code"
    message: str
    locations: Tuple[Tuple[str, int, int], ...]  # (file, line, col)
    provenance: Tuple[str, ...]  # canonical unknown keys

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "message": self.message,
            "locations": [{"file": f, "line": l, "col": c} for f, l, c in self.locations],
            "provenance": list(self.provenance),
        }


def _warning_id(kind: str, skeleton: str, provenance: Iterable[str]) -> str:
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(b"|")
    h.update(skeleton.encode())
    for p in sorted(provenance):
        h.update(b"|")
        h.update(p.encode())
    return h.hexdigest()[:16]


def make_warning(kind: str, skeleton: str, message: str,
                 provenance: Iterable[str],
                 locations: Iterable[Tuple[str, int, int]]) -> Warning:
    prov = tuple(sorted(provenance))
    return Warning(_warning_id(kind, skeleton, prov), kind, message,
                   tuple(sorted(set(locations))), prov)


@dataclass
class PostIndex:
    """What a postprocess keeps for the next postprocess of the same state,
    in memory only: the walk's `Reach`, each function's contexts
    (`increment.recorded_contexts`) under the node ids of `assignment`, the
    CFGs and the file name the warnings were made with, each function's
    unsound-store and dead-code warnings, each global's access records by
    producer, the functions that access it and its race warning."""

    reach: Reach
    contexts: Dict[str, Tuple[Context, ...]]
    assignment: NodeAssignment
    cfgs: Dict[str, FuncCFG] = field(default_factory=dict)
    filename: Optional[str] = None
    functions: Dict[str, List[Warning]] = field(default_factory=dict)
    by_global: Dict[str, Dict[Unknown, FrozenSet[Access]]] = field(default_factory=dict)
    accessed_by: Dict[str, Set[str]] = field(default_factory=dict)
    races: Dict[str, Warning] = field(default_factory=dict)

    @staticmethod
    def of(store: "WarnStore", reach: Reach, contexts: Dict[str, Collection[Context]],
           assignment: NodeAssignment) -> "PostIndex":
        """The index of `store`, which has none, made from the state's
        `reach` and `contexts` under `assignment` and from the store's
        access records.  It knows no CFG, so every warning is made anew."""
        by_global = _by_global(store.accesses)
        return PostIndex(reach, {fn: tuple(ctxs) for fn, ctxs in contexts.items()}, assignment,
                         by_global=by_global,
                         accessed_by={g: _accessors(rows) for g, rows in by_global.items()})


def _by_global(accesses: Dict[Unknown, Dict[str, FrozenSet[Access]]]
               ) -> Dict[str, Dict[Unknown, FrozenSet[Access]]]:
    """Access records by producer, turned into records by global, each by
    producer."""
    out: Dict[str, Dict[Unknown, FrozenSet[Access]]] = {}
    for u, rows in accesses.items():
        for g, records in rows.items():
            out.setdefault(g, {})[u] = records
    return out


def _accessors(by_producer: Dict[Unknown, FrozenSet[Access]]) -> Set[str]:
    """The functions whose edges made the records of one global."""
    return {r.fn for records in by_producer.values() for r in records}


@dataclass
class WarnStore:
    """Materialized warnings plus the access records of each producer
    unknown, by global, and the `PostIndex` of the state they were made
    from, which a bundle does not hold."""

    accesses: Dict[Unknown, Dict[str, FrozenSet[Access]]] = field(default_factory=dict)
    warnings: List[Warning] = field(default_factory=list)
    index: Optional[PostIndex] = field(default=None, compare=False, repr=False)

    def warnings_json(self) -> list:
        return [w.to_json() for w in self.warnings]


# ---------------------------------------------------------------------------
# Postprocessing pipeline
# ---------------------------------------------------------------------------


def postprocess(built: BuiltSystem, st: SolverState, prev: WarnStore, filename: str,
                reuse: Reuse) -> Tuple[WarnStore, dict]:
    """Verify the solution (raising StateCorruption before any warning is
    made), re-evaluate what the incremental run touched, reuse the access
    records `prev` holds of the reusable unknowns, prune the solver state
    to what is reachable, then bring the warnings up to date.  `reuse` is
    `increment.reanalyze`'s, and `prev` the store that the last postprocess
    of `st` made, or one loaded with it, with its index; the index is taken
    over.

    The walk starts from what the last one reached (``index.reach``).  The
    warnings of a function, and a global's race warning, are made anew
    only if what they read changed (see `_update_warnings`).

    Returns the new store plus statistics, lists of unknowns: the reached
    stable unknowns that the run touched (`reevaluated`), the untouched ones
    (`reused`), every unknown the walk evaluated (`evaluated`) and every
    unknown it evaluated, reused or re-checked (`walked`)."""
    sys_ = built.sys
    index, prev.index = prev.index, None
    violations: List[Violation] = []
    rows: Dict[Unknown, Optional[Dict[str, FrozenSet[Access]]]] = {}  # of the evaluated

    def visit(u, es, value):
        rows[u] = None
        if u not in st.stable:
            return
        violations.extend(check_unknown(sys_, st, u, es, value))
        records: Dict[str, Set[Access]] = {}
        for g, access in es.accesses:
            records.setdefault(g, set()).add(access)
        if records:
            rows[u] = {g: frozenset(rs) for g, rs in records.items()}

    walk = reachable_set(sys_, st, visit, reuse, index.reach)
    left = walk.left
    violations.extend(verify_solution(sys_, st, [u for u in left
                                                 if u in st.stable and u not in rows]))
    if violations:
        raise StateCorruption(f"internal error: solution verification failed: {violations[:3]}")

    # Pruning first: a context that the edit made unreachable must not
    # contribute warnings.
    prune(st, left)
    # The records of a reached unknown that the walk did not evaluate are
    # those it had; an unknown that is not reached has none.
    for v in left:
        rows.pop(v, None)
    store = WarnStore(dict(prev.accesses), index=index)
    before = {}  # the old records of each producer whose records may have changed
    for u in itertools.chain(rows, left):
        old, new = prev.accesses.get(u), rows.get(u)
        if old is None and new is None:
            continue
        before[u] = old
        if new is None:
            del store.accesses[u]
        else:
            store.accesses[u] = new
    new_cfgs = {fn for fn, cfg in built.cfgs.items()
                if index.cfgs.get(fn) is not cfg or index.filename != filename}
    index.filename = filename
    functions = _functions_to_update(index, built, st, reuse, left, new_cfgs)
    _update_warnings(store, built, st, functions, new_cfgs, before)
    index.cfgs, index.assignment = built.cfgs, built.assignment
    store.warnings = sorted(itertools.chain(index.races.values(), *index.functions.values()),
                            key=lambda w: (w.kind, w.id, w.message))
    stats = {"reevaluated": [], "reused": [], "evaluated": list(rows)}
    for u in rows:
        if u in st.stable:
            stats["reused" if u in reuse.untouched else "reevaluated"].append(u)
    stats["reused"].extend(walk.reused)
    stats["walked"] = walk.walked
    return store, stats


def _functions_to_update(index: PostIndex, built: BuiltSystem, st: SolverState,
                         reuse: Reuse, left: Dict[Unknown, tuple], new_cfgs: Set[str]) -> Set[str]:
    """The functions whose warnings may differ from those in `index`: those
    that own an unknown whose σ entry changed, came or went (`reuse.changed`
    and `left`), and those with a new CFG (`new_cfgs`).  Brings each one's
    contexts up to date: a context is one whose entry unknown has a σ
    entry, and a function whose entry has a new id keeps none of its old
    ones."""
    cfgs, contexts = built.cfgs, index.contexts
    then, now = index.assignment.assign, built.assignment.assign
    for fn in [fn for fn in contexts if not now.get(fn) or now[fn][0] != then[fn][0]]:
        del contexts[fn]  # its old entry unknowns are gone
    out = set(new_cfgs)
    for u in itertools.chain(reuse.changed, left):
        if isinstance(u, NodeCtx):
            cfg = cfgs.get(u.fn)
            if cfg is None:
                continue
            out.add(u.fn)
            if u.node == cfg.entry:
                ctxs = contexts.pop(u.fn, ())
                ctxs = tuple(c for c in ctxs if c != u.ctx)
                if u in st.sigma:
                    ctxs += (u.ctx,)
                if ctxs:
                    contexts[u.fn] = ctxs
    return out


def _update_warnings(store: WarnStore, built: BuiltSystem, st: SolverState, functions: Set[str],
                     new_cfgs: Set[str], before: Dict[Unknown, Optional[dict]]) -> None:
    """Make anew the warnings of `functions`, drop those of functions that
    are gone, and make anew the race warning of each global whose records
    changed or that a function of `new_cfgs` accesses.  `before` holds the
    old records of each producer whose records may have changed."""
    index, cfgs, filename = store.index, built.cfgs, store.index.filename
    for fn in index.functions.keys() - cfgs.keys():
        del index.functions[fn]
    for fn in functions:
        warnings = _unsound_stores(built, st, index.contexts, filename, [fn]) + \
            _dead_code(built, st, index.contexts, filename, [fn])
        if warnings:
            index.functions[fn] = warnings
        else:
            index.functions.pop(fn, None)
    by_global = index.by_global
    globs = {g for g, fns in index.accessed_by.items() if not fns.isdisjoint(new_cfgs)}
    for u, old in before.items():
        old, new = old or {}, store.accesses.get(u) or {}
        for g in old.keys() | new.keys():
            if old.get(g) != new.get(g):
                globs.add(g)
                if g in new:
                    by_global.setdefault(g, {})[u] = new[g]
                else:
                    by_global[g].pop(u, None)
                    if not by_global[g]:
                        del by_global[g]
    for g in sorted(globs):
        index.races.pop(g, None)
        index.accessed_by.pop(g, None)
        if g in by_global:
            index.accessed_by[g] = _accessors(by_global[g])
            for w in races(store, built, filename, [g]):
                index.races[g] = w


def _edge_location(built: BuiltSystem, fn: str, src: int, dst: int,
                   filename: str) -> Optional[Tuple[str, int, int]]:
    cfg = built.cfgs.get(fn)
    if cfg is None:
        return None
    e = cfg.edge_between(src, dst)
    if e is None:
        return None
    loc = cfg.label_loc(e)
    if loc is None:
        return (filename, cfg.fn.loc.line, cfg.fn.loc.col)
    return (filename, loc.line, loc.col)


def races(store: WarnStore, built: BuiltSystem, filename: str,
          globs: Optional[Iterable[str]] = None) -> List[Warning]:
    """Lockset rule: two accesses to the same global race when at least one
    writes and their must-held locksets are disjoint.  One warning per
    global of `globs` (default: every global the store's records access),
    citing every access involved in some conflicting pair.  The records
    are read off the store's index when it has one.

    Whether two accesses conflict depends only on their kinds and
    locksets, so the accesses are grouped by both and the groups compared:
    linear in the accesses, quadratic in the groups only."""
    by_global = store.index.by_global if store.index is not None else _by_global(store.accesses)
    out: List[Warning] = []
    for glob in sorted(by_global if globs is None else globs):
        groups: Dict[Tuple[str, Lockset], Set[Access]] = {}
        for records in by_global.get(glob, {}).values():
            for r in records:
                groups.setdefault((r.kind, r.locks), set()).add(r)
        keys = list(groups)
        conflicting: Set[Access] = set()
        for i, (kind_a, locks_a) in enumerate(keys):
            for kind_b, locks_b in keys[i:]:
                if kind_a != "write" and kind_b != "write":
                    continue
                if not locks_a.disjoint(locks_b):
                    continue
                if (kind_a, locks_a) == (kind_b, locks_b) and len(groups[kind_a, locks_a]) < 2:
                    continue  # an access does not race with itself
                conflicting |= groups[kind_a, locks_a]
                conflicting |= groups[kind_b, locks_b]
        if not conflicting:
            continue
        locs = []
        for r in sorted(conflicting, key=Access.sort_key):
            loc = _edge_location(built, r.fn, r.src, r.dst, filename)
            if loc is not None:
                locs.append(loc)
        # Warning ids hash the provenance, and ids are persisted and diffed
        # by id, so a race's provenance stays this fixed string: race warning
        # ids must not change.
        prov = json.dumps({"k": "acc", "name": glob}, sort_keys=True, separators=(",", ":"))
        out.append(make_warning(
            "race", f"race:{glob}",
            f"possible data race on global '{glob}'",
            [prov], locs))
    return out


def _unsound_stores(built: BuiltSystem, st: SolverState, contexts: Dict[str, Collection[Context]],
                    filename: str, functions: Optional[Iterable[str]] = None) -> List[Warning]:
    """A `*p = e` whose pointer evaluates to Top cannot be reflected on any
    global soundly; surface it.  In `functions` (default: every function)."""
    out: List[Warning] = []
    for fn in sorted(built.cfgs if functions is None else functions):
        cfg = built.cfgs[fn]
        for e in cfg.edges:
            if not isinstance(e.label, Store):
                continue
            offending = []
            for ctx in contexts.get(fn, ()):
                s = st.sigma.get(NodeCtx(fn, e.src, ctx))
                if not isinstance(s, LocalState) or s.is_bot():
                    continue
                p = s.env.as_dict().get(e.label.pointer)
                if isinstance(p, AddressSet) and p.is_top():
                    offending.append(NodeCtx(fn, e.dst, ctx))
            if offending:
                loc = _edge_location(built, fn, e.src, e.dst, filename)
                out.append(make_warning(
                    "unsound-store", f"unsound-store:{fn}:{e.dst}",
                    f"store through pointer '{e.label.pointer}' with unknown targets",
                    [unknown_key(u) for u in offending],
                    [loc] if loc else []))
    return out


def _dead_code(built: BuiltSystem, st: SolverState, contexts: Dict[str, Collection[Context]],
               filename: str, functions: Optional[Iterable[str]] = None) -> List[Warning]:
    """One warning per maximal connected region of dead nodes inside an
    analyzed function (dead: Bot or absent in every recorded context).  In
    `functions` (default: every function)."""
    out: List[Warning] = []
    for fn in sorted(built.cfgs if functions is None else functions):
        cfg = built.cfgs[fn]
        ctxs = contexts.get(fn)
        if not ctxs:
            continue  # function never analyzed; not dead code, just unused
        dead: Set[int] = set()
        for node in cfg.node_ids:
            alive = False
            for ctx in ctxs:
                s = st.sigma.get(NodeCtx(fn, node, ctx))
                if isinstance(s, LocalState) and not s.is_bot():
                    alive = True
                    break
            if not alive:
                dead.add(node)
        if not dead:
            continue
        # connected components over undirected CFG edges
        adj: Dict[int, Set[int]] = {n: set() for n in dead}
        for e in cfg.edges:
            if e.src in dead and e.dst in dead:
                adj[e.src].add(e.dst)
                adj[e.dst].add(e.src)
        seen: Set[int] = set()
        for start in sorted(dead):
            if start in seen:
                continue
            comp = []
            stack = [start]
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
                seen.add(n)
                comp.append(n)
                stack.extend(adj[n] - seen)
            comp.sort()
            locs = []
            for e in sorted(cfg.edges, key=lambda e: (e.dst, e.src)):
                if e.dst in comp:
                    loc = _edge_location(built, fn, e.src, e.dst, filename)
                    if loc is not None:
                        locs.append(loc)
                        break
            prov = [unknown_key(NodeCtx(fn, n, ctx)) for n in comp for ctx in ctxs]
            out.append(make_warning(
                "dead-code", f"dead:{fn}:{','.join(map(str, comp))}",
                f"unreachable code in '{fn}'",
                prov, locs))
    return out


def diff_warnings(old: WarnStore, new: WarnStore) -> dict:
    """Warning diff by id; `kept` carries the new (refreshed) locations."""
    old_by_id = {w.id: w for w in old.warnings}
    new_by_id = {w.id: w for w in new.warnings}
    added = [w for wid, w in sorted(new_by_id.items()) if wid not in old_by_id]
    removed = [w for wid, w in sorted(old_by_id.items()) if wid not in new_by_id]
    kept = [w for wid, w in sorted(new_by_id.items()) if wid in old_by_id]
    return {"added": added, "removed": removed, "kept": kept}
