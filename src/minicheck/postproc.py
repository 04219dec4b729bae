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

Warning identity hashes the kind, the provenance unknowns and a message
skeleton, never source locations: moved-but-unchanged code keeps its warning
id while the reported locations are refreshed from the current CFG.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .consys import Context, NodeCtx, Unknown, unknown_key
from .domains import Access, AddressSet, LocalState
from .increment import prune, reachable_set, recorded_contexts
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
class WarnStore:
    """Materialized warnings plus the access records of each producer
    unknown, by global."""

    accesses: Dict[Unknown, Dict[str, FrozenSet[Access]]] = field(default_factory=dict)
    warnings: List[Warning] = field(default_factory=list)

    def warnings_json(self) -> list:
        return [w.to_json() for w in self.warnings]


# ---------------------------------------------------------------------------
# Postprocessing pipeline
# ---------------------------------------------------------------------------


def postprocess(built: BuiltSystem, st: SolverState, prev: WarnStore,
                filename: str = "<input>", untouched: Set[Unknown] = frozenset(),
                reusable: Set[Unknown] = frozenset()) -> Tuple[WarnStore, dict]:
    """Verify the solution (raising StateCorruption before any warning is
    made), re-evaluate what the incremental run touched, reuse the access
    records `prev` holds of the `reusable` unknowns, prune the solver state
    to what is reachable, then run the whole-store analyses.  `untouched`
    and `reusable` are `increment.reanalyze`'s.

    Returns the new store plus statistics, lists of unknowns: the reached
    stable unknowns that the run touched (`reevaluated`), the untouched ones
    (`reused`) and every unknown the walk evaluated (`evaluated`)."""
    sys_ = built.sys
    store = WarnStore()
    violations: List[Violation] = []
    stats: Dict[str, list] = {"reevaluated": [], "reused": [], "evaluated": []}

    def visit(u, es, value):
        stats["evaluated"].append(u)
        if u not in st.stable:
            return
        violations.extend(check_unknown(sys_, st, u, es, value))
        stats["reused" if u in untouched else "reevaluated"].append(u)
        records: Dict[str, Set[Access]] = {}
        for g, access in es.accesses:
            records.setdefault(g, set()).add(access)
        if records:
            store.accesses[u] = {g: frozenset(rs) for g, rs in records.items()}

    def reuse(u):
        stats["reused"].append(u)
        rows = prev.accesses.get(u)
        if rows is not None:
            store.accesses[u] = rows

    sigma_keys_before = frozenset(st.sigma.keys())
    reachable = reachable_set(sys_, st, visit, reuse, reusable)
    assert st.sigma.keys() == sigma_keys_before, "postprocessing must not modify the solution"
    del sigma_keys_before  # a copy of σ's keys; pruning is the run's memory high-water mark
    violations.extend(verify_solution(sys_, st, st.stable - reachable))
    if violations:
        raise StateCorruption(f"internal error: solution verification failed: {violations[:3]}")

    # Pruning first: a context that the edit made unreachable must not
    # contribute warnings.
    prune(st, reachable)
    contexts = recorded_contexts(st, built.assignment)
    warnings: List[Warning] = []
    warnings.extend(races(store, built, filename))
    warnings.extend(_unsound_stores(built, st, contexts, filename))
    warnings.extend(_dead_code(built, st, contexts, filename))
    store.warnings = sorted(warnings, key=lambda w: (w.kind, w.id, w.message))
    return store, stats


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


def races(store: WarnStore, built: BuiltSystem, filename: str) -> List[Warning]:
    """Lockset rule: two accesses to the same global race when at least one
    writes and their must-held locksets are disjoint.  One warning per
    global, citing every access involved in some conflicting pair."""
    by_global: Dict[str, Set[Access]] = {}
    for rows in store.accesses.values():
        for glob, records in rows.items():
            by_global.setdefault(glob, set()).update(records)
    out: List[Warning] = []
    for glob in sorted(by_global):
        records = sorted(by_global[glob], key=Access.sort_key)
        conflicting: Set[Access] = set()
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                if a.kind != "write" and b.kind != "write":
                    continue
                if a.locks.disjoint(b.locks):
                    conflicting.add(a)
                    conflicting.add(b)
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


def _unsound_stores(built: BuiltSystem, st: SolverState, contexts: Dict[str, Set[Context]],
                    filename: str) -> List[Warning]:
    """A `*p = e` whose pointer evaluates to Top cannot be reflected on any
    global soundly; surface it."""
    out: List[Warning] = []
    for fn, cfg in sorted(built.cfgs.items()):
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


def _dead_code(built: BuiltSystem, st: SolverState, contexts: Dict[str, Set[Context]],
               filename: str) -> List[Warning]:
    """One warning per maximal connected region of dead nodes inside an
    analyzed function (dead: Bot or absent in every recorded context)."""
    out: List[Warning] = []
    for fn, cfg in sorted(built.cfgs.items()):
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
