"""Shared fixtures and oracles for the test suite.

The Kleene round-robin iterator and the random tree/system generators here
are deliberately independent of the solver implementation: they re-derive
expected results by brute force so solver regressions cannot hide.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from minicheck.consys import (
    Ans,
    Context,
    EqSys,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
    eval_tree,
    unknown_key,
)
from minicheck.domains import ValueSet, join, value_key, value_to_json
from minicheck.minic import AnalysisConfig, assign_node_ids, build_system, parse
from minicheck.tdsolver import SolverState, run

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
    asg = assignment if assignment is not None else assign_node_ids(prog, None, set(), set())
    built = build_system(prog, asg, AnalysisConfig(domain=domain))
    st = SolverState()
    stats = run(built.sys, st, restart_wpoint=restart_wpoint)
    return built, st, stats


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


def random_tree(rng: random.Random, unknowns: List, depth: int = 0):
    """A random, pure, possibly data-dependent strategy tree.

    Continuations branch on whether the queried value is Top or contains a
    pivot element, then proceed with structurally fixed subtrees; this keeps
    purity (same input, same subtree) while exercising data dependence."""
    r = rng.random()
    if depth >= 5 or r < 0.3:
        return Ans(random_value(rng))
    if r < 0.55:
        target = rng.choice(unknowns)
        contribution = random_value(rng)
        return QSet(target, contribution, random_tree(rng, unknowns, depth + 1))
    u = rng.choice(unknowns)
    pivot = rng.choice(UNIVERSE)
    sub_a = random_tree(rng, unknowns, depth + 1)
    sub_b = random_tree(rng, unknowns, depth + 1)
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


def monotone_tree(queries: List, sides: List[Tuple], ans: Tuple):
    """Tree that queries `queries` in order, then side-effects and answers
    monotone combinations (constant joined with selected queried values)."""

    def go(i: int, got: Tuple[ValueSet, ...]):
        if i < len(queries):
            return QGet(queries[i], lambda v, i=i, got=got: go(i + 1, got + (v,)))
        tree = Ans(_combine(ans[0], ans[1], got))
        for target, const, mask in reversed(sides):
            tree = QSet(target, _combine(const, mask, got), tree)
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
        rhs[x] = monotone_tree(queries, sides, (random_value(rng), ans_mask))
        deps[x] = (list(queries), [g for g, _, _ in sides])
    starts = {}
    if rng.random() < 0.5:
        starts[rng.choice(globs)] = random_value(rng)
    query = nodes[0]
    sys_ = EqSys.from_dict(rhs, globs, starts, query, lambda u: ValueSet.bot())
    return sys_, rhs, deps, starts, query


def kleene_solve(rhs: dict, starts: dict, max_rounds: int = 2000) -> dict:
    """Round-robin iteration to the least solution of a monotone system."""
    sigma: Dict = {}
    for g, d in starts.items():
        sigma[g] = d

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
        for g, d in starts.items():
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


def kleene_local_solution(rhs: dict, deps: dict, starts: dict, query) -> tuple:
    """Least solution of the subsystem statically reachable from the query.

    A local solver never evaluates right-hand sides outside this subsystem,
    so contributions from elsewhere must not be counted by the oracle."""
    reached = oracle_reached_static(deps, query)
    sub = {x: t for x, t in rhs.items() if x in reached}
    return kleene_solve(sub, starts), reached
