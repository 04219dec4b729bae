"""Shared fixtures and oracles for the test suite.

The Kleene round-robin iterator and the random tree/system generators here
are deliberately independent of the solver implementation: they re-derive
expected results by brute force so solver regressions cannot hide.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Dict, List, Tuple

from minicheck.consys import (
    Ans,
    Context,
    Emit,
    EqSys,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
    eval_tree,
    sort_key,
    unknown_key,
)
from minicheck.domains import Access, Lockset, Value, ValueSet, access_to_json, join, value_to_json
from minicheck.increment import recorded_contexts
from minicheck.minic import NodeAssignment, assign_node_ids, build_system, parse
from minicheck.postproc import (
    StateCorruption,
    WarnStore,
    _dead_code,
    _edge_location,
    _unsound_stores,
    make_warning,
)
from minicheck import journal, tdsolver
from minicheck.tdsolver import SolverState, check_unknown, run, verify_solution

# ---------------------------------------------------------------------------
# The running example (two concurrent functions sharing one global)
# ---------------------------------------------------------------------------

FIG2 = """atomic int g = 0 ;
void* foo(void* p) {
   *p = 1;
   return NULL;
}
int main() {
   create(foo, &g);
   return g;
}
"""

FIG2_EDIT = FIG2.replace("*p = 1;", "*p = 2;")


def analyze_source(text: str, domain: str = "valueset", restart_wpoint: bool = False,
                   assignment=None):
    """Library-level from-scratch pipeline (no persistence).

    Pass `assignment` to name program points like an existing state does
    (required when comparing σ across runs after node counts changed)."""
    prog = parse(text)
    asg = assignment if assignment is not None else fresh_assignment(prog)
    built = build_system(prog, asg, domain)
    st = SolverState()
    stats = run(built.sys, st, restart_wpoint=restart_wpoint)
    return built, st, stats


def fresh_assignment(prog):
    """Node ids of `prog` analyzed for the first time."""
    return assign_node_ids(prog, NodeAssignment(), set(), set())


def eqsys_from_dict(rhs: dict, query, bot_of: Callable) -> EqSys:
    """A system with the explicit right-hand sides `rhs`; every other unknown
    has none (its values arrive by side-effect only)."""
    if query not in rhs:
        raise ValueError("query has no rhs")
    return EqSys(rhs.get, query, bot_of, rhs.__contains__)


def solver_section(then: dict, st: SolverState) -> dict:
    """The solver section of the record that turns `st` as it was when
    `tdsolver.tables` returned `then` (``{}`` for the empty state) into
    `st`, as the JSON it is written as.  It ends the logs of `st`."""
    parts = []
    journal.write_json(parts.append, tdsolver.state_to_json(then, st))
    return json.loads("".join(parts))


def full_tables(st: SolverState) -> dict:
    """Every table of the solver copied whole, each row as a log holds what
    it was (σ's value, True for a member of a set, a map's members as a
    tuple), and the counters: the snapshot that the logs of the rows a
    reanalysis writes are checked against (`differences`)."""
    out = {name: {u: tuple(row) for u, row in getattr(st, name).items()}
           for name in tdsolver.MAPS}
    return {"sigma": dict(st.sigma), "stable": dict.fromkeys(st.stable, True),
            "point": dict.fromkeys(st.point, True),
            "counters": {"rhs_evals": st.rhs_evals, "destabilizations": st.destabilizations},
            **out}


def _differs(name: str, was, now) -> bool:
    """Whether a row of table `name` that was `was` differs as `now`, each
    as `full_tables` holds a row (None for none): σ's by the identity of
    the value, which a run that does not touch it leaves the object it was."""
    return was is not now if name == "sigma" else was != now


def differences(then: dict, st: SolverState) -> dict:
    """The snapshot comparison: by table, every key whose row in `st`
    differs from the one in `full_tables` `then`, with what it was (None if
    it had none); None for a table that was empty, all of whose rows are
    new.  The reference for `logged_differences`."""
    now = full_tables(st)
    return {name: None if not then[name] else
            {u: then[name].get(u) for u in {**then[name], **now[name]}
             if _differs(name, then[name].get(u), now[name].get(u))}
            for name in tdsolver.TABLES}


def logged_differences(st: SolverState) -> dict:
    """The logs of the tables of `st`, each cut down to the rows that
    differ from what the log holds, as `differences` finds them."""
    now = full_tables(st)
    logs = {name: getattr(st, name).log for name in tdsolver.TABLES}
    return {name: None if log is None else
            {u: was for u, was in log.items() if _differs(name, was, now[name].get(u))}
            for name, log in logs.items()}


def full_section(then: dict, st: SolverState) -> dict:
    """The solver section of the record that turns `full_tables` `then`
    into `st`, found by comparing every row: it gives every table of `st`
    a log that names every key."""
    for name in tdsolver.TABLES:
        table = getattr(st, name)
        table.log = {u: then[name].get(u) for u in [*then[name], *table]}
    return solver_section(then["counters"], st)


def apply_section(st: SolverState, doc: dict) -> None:
    """Apply the solver section `doc` to `st` as a replay does, counters
    included."""
    counters = tdsolver.state_from_json(st, doc)
    if counters is not None:
        st.rhs_evals, st.destabilizations = counters["rhs_evals"], counters["destabilizations"]


def reloaded(st: SolverState) -> SolverState:
    """`st` written as the solver section of a base and read back; the
    producers come back equal and in order."""
    out = SolverState()
    apply_section(out, solver_section({}, st))
    assert producers(out) == producers(st)
    return out


def producers(st: SolverState) -> dict:
    """Each side-effected unknown's producers, in recorded order."""
    return {g: list(xs) for g, xs in st.side_dep.items()}


def persisted(session) -> bytes:
    """Everything a state dir persists of `session`: the record that turns
    the empty session into it."""
    return journal.record(journal.EMPTY, session, "", "")[0]


def assert_producers_are_the_last_evaluations(sys_: EqSys, st: SolverState) -> None:
    """The producers `side_dep` records for each target, in recorded order,
    are exactly the stable unknowns whose pure evaluation side-effects it;
    no other unknown is recorded as a producer."""
    expected: Dict = {}
    look = sys_.lookup(st.sigma)
    for x in st.stable:
        tree = sys_.rhs(x)
        if tree is not None:
            for g in eval_tree(tree, look)[0].sides:
                expected.setdefault(g, set()).add(x)
    assert {g: set(xs) for g, xs in producers(st).items()} == expected


def value_key(v: Value) -> str:
    """Deterministic string form, usable as a sort/compare key."""
    return json.dumps(value_to_json(v), sort_keys=True, separators=(",", ":"))


def side_maps_inverse(st: SolverState) -> bool:
    """side_dep and side_infl must be exact inverses."""
    fwd = {(x, g) for g, xs in st.side_dep.items() for x in xs}
    bwd = {(x, g) for x, gs in st.side_infl.items() for g in gs}
    return fwd == bwd


def materialize(t, samples, max_depth: int = 12):
    """Expand a tree into an explicit, continuation-free form for inspection.

    QGet branches are enumerated over `samples`.  The result is a nested
    structure of tuples keyed by the canonical encoding of each sample
    value."""
    samples = list(samples)

    def go(node, depth):
        if depth > max_depth:
            return ("...",)
        if isinstance(node, Ans):
            return ("ans", value_to_json(node.value))
        if isinstance(node, QGet):
            branches = {}
            for v in samples:
                try:
                    branches[value_key(v)] = go(node.cont(v), depth + 1)
                except Exception as exc:  # sample outside the tree's domain
                    branches[value_key(v)] = ("error", str(exc))
            return ("qget", unknown_key(node.unknown), branches)
        if isinstance(node, QSet):
            return ("qset", unknown_key(node.unknown), value_to_json(node.value),
                    go(node.rest, depth + 1))
        if isinstance(node, Emit):
            return ("emit", node.glob, access_to_json(node.access), go(node.rest, depth + 1))
        raise TypeError(f"not a strategy tree node: {node!r}")

    return go(t, 0)


# ---------------------------------------------------------------------------
# Random strategy trees (data-dependent branching allowed) for Proposition 1
# ---------------------------------------------------------------------------

UNIVERSE = [0, 1, 2, 3]


def random_value(rng: random.Random) -> ValueSet:
    if rng.random() < 0.08:
        return ValueSet.top()
    k = rng.randrange(0, len(UNIVERSE) + 1)
    return ValueSet.of(rng.sample(UNIVERSE, k))


def random_emission(rng: random.Random, n_globals: int = 3) -> Tuple[str, Access]:
    """An access record of one of the globals g0, g1, ..."""
    locks = rng.choice([Lockset.top(), Lockset.of(["m"])])
    access = Access(rng.choice(["read", "write"]), locks, "t", rng.randrange(4), rng.randrange(4))
    return f"g{rng.randrange(n_globals)}", access


def random_tree(rng: random.Random, unknowns: List, depth: int = 0, targets: List = None):
    """A random, pure, possibly data-dependent strategy tree that queries
    `unknowns` and side-effects `targets` (default: `unknowns`).

    Continuations branch on whether the queried value is Top or contains a
    pivot element, then proceed with structurally fixed subtrees; this keeps
    purity (same input, same subtree) while exercising data dependence."""
    targets = unknowns if targets is None else targets
    r = rng.random()
    if depth >= 5 or r < 0.3:
        return Ans(random_value(rng))
    if r < 0.55:
        target = rng.choice(targets)
        contribution = random_value(rng)
        return QSet(target, contribution, random_tree(rng, unknowns, depth + 1, targets))
    if r < 0.65:
        glob, access = random_emission(rng)
        return Emit(glob, access, random_tree(rng, unknowns, depth + 1, targets))
    u = rng.choice(unknowns)
    pivot = rng.choice(UNIVERSE)
    sub_a = random_tree(rng, unknowns, depth + 1, targets)
    sub_b = random_tree(rng, unknowns, depth + 1, targets)
    mix = rng.random() < 0.5

    def cont(v, sub_a=sub_a, sub_b=sub_b, pivot=pivot, mix=mix):
        taken = sub_a if (v.values is None or pivot in v.values) else sub_b
        if mix and isinstance(taken, Ans):
            # make the answer depend on the received value
            return Ans(join(taken.value, v))
        return taken

    return QGet(u, cont)


# ---------------------------------------------------------------------------
# Random finite monotone systems + Kleene round-robin oracle
# ---------------------------------------------------------------------------


def _combine(const: ValueSet, mask: Tuple[bool, ...], got: Tuple[ValueSet, ...]) -> ValueSet:
    out = const
    for take, v in zip(mask, got):
        if take:
            out = out.join(v)
    return out


def monotone_tree(queries: List, sides: List[Tuple], ans: Tuple, emissions: List[Tuple] = ()):
    """Tree that queries `queries` in order, then side-effects and answers
    monotone combinations (constant joined with selected queried values);
    the access records `emissions` come before the side effects."""

    def go(i: int, got: Tuple[ValueSet, ...]):
        if i < len(queries):
            return QGet(queries[i], lambda v, i=i, got=got: go(i + 1, got + (v,)))
        tree = Ans(_combine(ans[0], ans[1], got))
        for target, const, mask in reversed(sides):
            tree = QSet(target, _combine(const, mask, got), tree)
        for glob, access in reversed(emissions):
            tree = Emit(glob, access, tree)
        return tree

    return go(0, ())


def make_random_system(rng: random.Random, n_unknowns: int = 8, n_globals: int = 3):
    """Random monotone side-effecting system over small value sets.

    Also returns the static dependency structure (queried unknowns and
    side-effect targets per rhs), so oracles can compute reachability without
    consulting the solver."""
    nodes = [NodeCtx("t", i, Context.EMPTY) for i in range(n_unknowns)]
    globs = [GlobalVar(f"g{j}") for j in range(n_globals)]
    rhs = {}
    deps = {}
    for i, x in enumerate(nodes):
        n_q = rng.randrange(0, 4)
        queries = [rng.choice(nodes + globs) for _ in range(n_q)]
        n_s = rng.randrange(0, 3)
        sides = []
        for _ in range(n_s):
            mask = tuple(rng.random() < 0.5 for _ in range(n_q))
            sides.append((rng.choice(globs), random_value(rng), mask))
        ans_mask = tuple(rng.random() < 0.6 for _ in range(n_q))
        emissions = [random_emission(rng, n_globals) for _ in range(rng.randrange(0, 2))]
        rhs[x] = monotone_tree(queries, sides, (random_value(rng), ans_mask), emissions)
        deps[x] = (list(queries), [g for g, _, _ in sides])
    query = nodes[0]
    if rng.random() < 0.5:  # the query side-effects a global before all else
        g = rng.choice(globs)
        rhs[query] = QSet(g, random_value(rng), rhs[query])
        deps[query][1].insert(0, g)
    sys_ = eqsys_from_dict(rhs, query, lambda u: ValueSet.bot())
    return sys_, rhs, deps, query


def kleene_solve(rhs: dict, max_rounds: int = 2000) -> dict:
    """Round-robin iteration to the least solution of a monotone system."""
    sigma: Dict = {}

    def look(u):
        return sigma.get(u, ValueSet.bot())

    for _ in range(max_rounds):
        new_sigma: Dict = dict()
        contributions: Dict = {}
        for x, t in rhs.items():
            es, v = eval_tree(t, look)
            new_sigma[x] = v
            for g, d in es.sides.items():
                contributions[g] = contributions.get(g, ValueSet.bot()).join(d)
        for g, d in contributions.items():
            new_sigma[g] = new_sigma.get(g, ValueSet.bot()).join(d)
        if new_sigma == sigma:
            return sigma
        sigma = new_sigma
    raise AssertionError("oracle did not stabilize")


def oracle_reached_static(deps: dict, query) -> set:
    """Unknowns statically reachable from the query via queries and sides."""
    reached = set()
    stack = [query]
    while stack:
        u = stack.pop()
        if u in reached:
            continue
        reached.add(u)
        qs, sides = deps.get(u, ((), ()))
        stack.extend(y for y in qs if y not in reached)
        stack.extend(g for g in sides if g not in reached)
    return reached


def kleene_local_solution(rhs: dict, deps: dict, query) -> tuple:
    """Least solution of the subsystem statically reachable from the query.

    A local solver never evaluates right-hand sides outside this subsystem,
    so contributions from elsewhere must not be counted by the oracle."""
    reached = oracle_reached_static(deps, query)
    sub = {x: t for x, t in rhs.items() if x in reached}
    return kleene_solve(sub), reached


# ---------------------------------------------------------------------------
# Post-solve work done in full: the reference for the incremental walk,
# pruning and postprocessing, which skip what an edit left alone
# ---------------------------------------------------------------------------


class StableLog(tdsolver.Members):
    """A solver's `stable` set that records every unknown discarded from it
    since it was made from the set it replaces: the oracle of the untouched
    unknowns that `increment.reanalyze` derives from the log of `stable`
    and the unknowns the solver evaluated.  The package writes `stable`
    only through the methods of `tdsolver.Members`, which a `StableLog`
    keeps (`tests/test_hygiene.py`)."""

    def __init__(self, items=()):
        super().__init__(items)
        self.start = frozenset(self)
        self.discarded = set()

    def untouched(self) -> set:
        """Stable at the start, never discarded, stable now."""
        return (self.start - self.discarded) & self

    def discard(self, u):
        self.discarded.add(u)
        super().discard(u)

    def difference_update(self, *others):
        for other in others:
            for u in list(other):
                self.discard(u)


def log_stable(st: SolverState) -> StableLog:
    """Replace the stable set of `st` by a `StableLog` of it, which takes
    over its log."""
    log, st.stable = st.stable.log, StableLog(st.stable)
    st.stable.log = log
    return st.stable


def full_restart_globals(G, sys_: EqSys, st: SolverState, roots=()) -> dict:
    """Restarting in full, the paper's minimal restarting: each global of
    `G` back to Bot and destabilized, and every unknown that side-effected it
    destabilized.  The reference for `increment.restart_globals`, which
    restarts a global this way only when its producers' contributions cannot
    be trusted; `sys_` and `roots` are ignored.  Keeps no contribution, so
    returns the empty dict."""
    for g in sorted(G, key=sort_key):
        st.sigma.pop(g, None)
        st.stable.discard(g)
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
            st.destabilize(x)
    return {}


def full_reachable_set(sys_: EqSys, st: SolverState, visit: Callable = None) -> dict:
    """Unknowns reachable from the query under σ, each reached rhs evaluated
    purely, once; `visit(u, eval_state, value)` sees that evaluation, and
    the ``infl`` edges to it that it did not read are dropped.  Returns each
    reached unknown with the set of what its evaluation queried and
    side-effected."""
    look = sys_.lookup(st.sigma)
    reads = {}  # the inverse of infl, row by row
    for y, xs in st.infl.items():
        for x in xs:
            reads.setdefault(x, []).append(y)
    reached = {}
    stack = [sys_.query]
    while stack:
        u = stack.pop()
        if u in reached:
            continue
        reached[u] = set()
        tree = sys_.rhs(u)
        if tree is None:
            continue
        es, value = eval_tree(tree, look)
        if visit is not None:
            visit(u, es, value)
        for y in reads.get(u, ()):
            if y not in es.queried:
                row = st.infl[y]
                del row[u]
                if not row:
                    del st.infl[y]
        reached[u] = set(es.queried) | set(es.sides)
        stack.extend(y for y in reached[u] if y not in reached)
    return reached


def full_prune(st: SolverState, reachable) -> None:
    """Rebuild every solver map from what `reachable` holds."""
    R = reachable
    st.sigma = tdsolver.Values({u: v for u, v in st.sigma.items() if u in R})
    st.stable.difference_update([u for u in st.stable if u not in R])
    st.point.difference_update([u for u in st.point if u not in R])

    def prune_map(m):
        out = {}
        for u, members in m.items():
            if u not in R:
                continue
            kept = {y: None for y in members if y in R}
            if kept:
                out[u] = kept
        return out

    st.infl = tdsolver.Rows(prune_map(st.infl))
    st.side_dep = tdsolver.Rows(prune_map(st.side_dep))
    st.side_infl = tdsolver.Rows(prune_map(st.side_infl))


def inexact_infl(sys_: EqSys, st: SolverState, reached) -> dict:
    """The stable unknowns with a rhs among `reached` whose ``infl`` edges
    are not exactly what a pure evaluation of their rhs under σ queries,
    each with the unknowns whose rows name it and what it queries."""
    look = sys_.lookup(st.sigma)
    readers = {}
    for y, xs in st.infl.items():
        for x in xs:
            readers.setdefault(x, set()).add(y)
    out = {}
    for u in reached:
        if u in st.stable and sys_.has_rhs(u):
            queried = set(eval_tree(sys_.rhs(u), look)[0].queried)
            if readers.get(u, set()) != queried:
                out[u] = (readers.get(u, set()), queried)
    return out


def pairwise_races(store: WarnStore, built, filename: str):
    """The race warnings of `postproc.races`, found by comparing every pair
    of accesses to a global."""
    by_global = {}
    for rows in store.accesses.values():
        for glob, records in rows.items():
            by_global.setdefault(glob, set()).update(records)
    out = []
    for glob in sorted(by_global):
        records = sorted(by_global[glob], key=Access.sort_key)
        conflicting = set()
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
        prov = json.dumps({"k": "acc", "name": glob}, sort_keys=True, separators=(",", ":"))
        out.append(make_warning("race", f"race:{glob}", f"possible data race on global '{glob}'",
                                [prov], locs))
    return out


def full_postprocess(built, st: SolverState, prev: WarnStore, untouched: set,
                     filename: str = "<input>"):
    """Postprocessing that evaluates and checks every reached stable unknown
    and makes every warning anew; an `untouched` one takes its access
    records from `prev`.  Returns the store, the re-evaluated and the reused
    unknowns, and each reached unknown with its successors."""
    sys_ = built.sys
    store = WarnStore()
    violations = []
    stats = {"reevaluated": [], "reused": []}

    def visit(u, es, value):
        if u not in st.stable:
            return
        violations.extend(check_unknown(sys_, st, u, es, value))
        if u in untouched:
            stats["reused"].append(u)
            if u in prev.accesses:
                store.accesses[u] = prev.accesses[u]
        else:
            stats["reevaluated"].append(u)
            records = {}
            for g, access in es.accesses:
                records.setdefault(g, set()).add(access)
            if records:
                store.accesses[u] = {g: frozenset(rs) for g, rs in records.items()}

    reachable = full_reachable_set(sys_, st, visit)
    violations.extend(verify_solution(sys_, st, st.stable - reachable.keys()))
    if violations:
        raise StateCorruption(f"internal error: solution verification failed: {violations[:3]}")
    full_prune(st, reachable)
    contexts = recorded_contexts(st, built.assignment)
    warnings = pairwise_races(store, built, filename) + \
        _unsound_stores(built, st, contexts, filename) + \
        _dead_code(built, st, contexts, filename)
    store.warnings = sorted(warnings, key=lambda w: (w.kind, w.id, w.message))
    return store, stats, reachable
