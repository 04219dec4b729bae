"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Numeric tolerances and budgets are pinned here, not configurable.
"""

import io
import json
import random
import time

import pytest

from minicheck import cli
from minicheck.consys import (
    INIT,
    MAIN,
    Context,
    GlobalVar,
    NodeCtx,
    eval_tree,
)
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import (
    AddressSet,
    Env,
    Interval,
    LocalState,
    Lockset,
    ValueSet,
    leq,
)
from minicheck.increment import (
    detect_changes,
    prepare_reluctant,
    reanalyze,
    recorded_contexts,
    relabel_nodes,
)
from minicheck.minic import build_system, parse
from minicheck.minic.cfg import Guard
from minicheck.minic.syntax import BinOp, Var
from minicheck.tdsolver import (
    SolverState,
    run,
    state_from_json,
    verify_solution,
)

from support import (
    FIG2,
    FIG2_EDIT,
    analyze_source,
    full_prune,
    full_reachable_set,
    kleene_local_solution,
    make_random_system,
    random_tree,
    random_value,
    reloaded,
)

BETA0 = Context.of({"p": AddressSet.of(["g"])})
G = GlobalVar("g")


def vs(*xs):
    return ValueSet.of(xs)


def node(fn, i, ctx=Context.EMPTY):
    return NodeCtx(fn, i, ctx)


def ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def _invoke(fn, *args, **kw):
    out, err = io.StringIO(), io.StringIO()
    code = fn(*args, out=out, err=err, **kw)
    return code, out.getvalue(), err.getvalue()


def _incremental(old_text, new_text, mode, restart, base_built, base_state):
    st = reloaded(base_state)
    _, new_built, stats, _ = reanalyze(parse(old_text).digests, base_built.assignment,
                                       st, parse(new_text), mode, restart,
                                       contexts=recorded_contexts(st, base_built.assignment))
    return new_built, st, stats


# -- 1: Example 2 reproduction ---------------------------------------------------


def test_criterion_1_example_solution(tmp_path):
    src = tmp_path / "fig2.mc"
    src.write_text(FIG2)
    t0 = time.perf_counter()
    code, out, _ = _invoke(cli.cmd_analyze, str(src),
                           cli.Options(state_dir=str(tmp_path / "st")))
    elapsed = time.perf_counter() - t0
    assert code == 0
    bundle = json.load(open(tmp_path / "st" / "bundle.json"))
    st = SolverState()
    state_from_json(st, bundle["solver"])

    ls = lambda env: LocalState(Env.of(env), Lockset.top())
    assert st.sigma[G] == vs(0, 1)
    assert st.sigma[node("main", 5)] == ls({"ret": vs(0, 1)})
    assert st.sigma[node("foo", 2, BETA0)] == ls({"ret": AddressSet.null(),
                                                  "p": AddressSet.of(["g"])})
    node_unknowns = {u for u in st.sigma if isinstance(u, NodeCtx)}
    assert node_unknowns == {node("foo", 0, BETA0), node("foo", 1, BETA0),
                             node("foo", 2, BETA0), node("main", 3),
                             node("main", 4), node("main", 5)}
    assert elapsed < 1.0
    ok(1, f"Example-2 solution reproduced exactly in {elapsed:.3f}s")


# -- 2: Example 3 tables -----------------------------------------------------------


def test_criterion_2_dependency_tables(tmp_path):
    src = tmp_path / "fig2.mc"
    src.write_text(FIG2)
    t0 = time.perf_counter()
    _invoke(cli.cmd_analyze, str(src), cli.Options(state_dir=str(tmp_path / "st")))
    elapsed = time.perf_counter() - t0
    bundle = json.load(open(tmp_path / "st" / "bundle.json"))
    st = SolverState()
    state_from_json(st, bundle["solver"])

    def table(m):
        return {k: set(v) for k, v in m.items()}

    assert table(st.infl) == {
        INIT: {MAIN},
        G: {node("main", 5)},
        node("foo", 0, BETA0): {node("foo", 1, BETA0)},
        node("foo", 1, BETA0): {node("foo", 2, BETA0)},
        node("foo", 2, BETA0): {node("main", 4)},
        node("main", 3): {node("main", 4)},
        node("main", 4): {node("main", 5)},
        node("main", 5): {MAIN},
    }
    assert table(st.side_dep) == {
        G: {INIT, node("foo", 1, BETA0)},
        node("foo", 0, BETA0): {node("main", 4)},
        node("main", 3): {MAIN},
    }
    assert table(st.side_infl) == {
        INIT: {G},
        node("foo", 1, BETA0): {G},
        node("main", 4): {node("foo", 0, BETA0)},
        MAIN: {node("main", 3)},
    }
    assert elapsed < 1.0
    ok(2, f"Example-3 infl/side_dep/side_infl tables exact in {elapsed:.3f}s")


# -- 3: incremental trio -------------------------------------------------------------


def test_criterion_3_incremental_trio():
    base_built, base_state, _ = analyze_source(FIG2)
    results = {}
    for mode in ("plain", "reluctant"):
        t0 = time.perf_counter()
        _, st, _ = _incremental(FIG2, FIG2_EDIT, mode, "off", base_built, base_state)
        dt = time.perf_counter() - t0
        assert dt < 1.0
        results[(mode, "off")] = st.sigma[G]
    for mode in ("plain", "reluctant"):
        t0 = time.perf_counter()
        _, st, _ = _incremental(FIG2, FIG2_EDIT, mode, "minimal", base_built, base_state)
        dt = time.perf_counter() - t0
        assert dt < 1.0
        results[(mode, "minimal")] = st.sigma[G]
        assert st.sigma[node("main", 5)].env.get("ret") == vs(0, 2)
    t0 = time.perf_counter()
    _, scratch, _ = analyze_source(FIG2_EDIT)
    assert time.perf_counter() - t0 < 1.0

    assert results[("plain", "off")] == vs(0, 1, 2)
    assert results[("reluctant", "off")] == vs(0, 1, 2)
    assert results[("plain", "minimal")] == vs(0, 2)
    assert results[("reluctant", "minimal")] == vs(0, 2)
    assert scratch.sigma[G] == vs(0, 2)
    ok(3, "plain/reluctant give {0,1,2}; minimal restart and from-scratch give {0,2}")


# -- 4: reluctant behavior -------------------------------------------------------------


def test_criterion_4_reluctant_stable_sets_and_counter():
    base_built, base_state, _ = analyze_source(FIG2)
    st = reloaded(base_state)
    changes = detect_changes(parse(FIG2).digests, parse(FIG2_EDIT))
    new_asg = relabel_nodes(changes, base_built.assignment, parse(FIG2_EDIT))
    new_built = build_system(parse(FIG2_EDIT), new_asg)
    A = prepare_reluctant(changes, st, base_built.assignment,
                          recorded_contexts(st, base_built.assignment))

    # after preparation: the return unknown is scheduled, its dependents kept
    assert A == [node("foo", 2, BETA0)]
    assert node("foo", 2, BETA0) not in st.stable
    assert node("main", 4) in st.stable and node("main", 5) in st.stable
    node_stable = {u for u in st.stable if isinstance(u, NodeCtx)}
    assert node_stable == {node("foo", 0, BETA0), node("main", 3),
                           node("main", 4), node("main", 5)}

    stats = run(new_built.sys, st, pre_solve=A)

    # step 1 left ⟨4,∅⟩ alone but the new side-effect destabilized ⟨5,∅⟩;
    # afterwards everything is stable again with the endpoint re-evaluated once
    assert stats["step1_evals_by_unknown"].get(node("main", 4)) is None
    assert stats["step2_evals_by_unknown"].get(node("main", 4)) is None
    assert stats["step2_evals_by_unknown"].get(node("main", 5)) == 1
    assert st.sigma[node("main", 5)].env.get("ret") == vs(0, 1, 2)
    ok(4, "reluctant preparation and step-1/step-2 stable sets match; "
          "endpoint re-evaluated exactly once")


def test_criterion_4_step1_intermediate_state():
    # drive the two steps separately to observe the state between them
    base_built, base_state, _ = analyze_source(FIG2)
    st = reloaded(base_state)
    changes = detect_changes(parse(FIG2).digests, parse(FIG2_EDIT))
    new_asg = relabel_nodes(changes, base_built.assignment, parse(FIG2_EDIT))
    new_built = build_system(parse(FIG2_EDIT), new_asg)
    A = prepare_reluctant(changes, st, base_built.assignment,
                          recorded_contexts(st, base_built.assignment))
    run(new_built.sys, st, pre_solve=A)  # without querying further
    # (run also solves the query; replicate the step-1-only state instead)
    st = reloaded(base_state)
    A = prepare_reluctant(changes, st, base_built.assignment,
                          recorded_contexts(st, base_built.assignment))
    from minicheck.tdsolver import Phase, Solver
    solver = Solver(new_built.sys, st)
    for a in A:
        solver.solve(Phase.WIDEN, a)
    node_stable = {u for u in st.stable if isinstance(u, NodeCtx)}
    assert node("main", 4) in node_stable          # kept: value unchanged
    assert node("main", 5) not in node_stable      # destabilized by side to g
    assert {node("foo", 0, BETA0), node("foo", 6, BETA0), node("foo", 2, BETA0)} <= node_stable
    ok(4, "intermediate step-1 state: ⟨4,∅⟩ kept, ⟨5,∅⟩ destabilized")


# -- 5: efficiency proxy ------------------------------------------------------------------


def test_criterion_5_efficiency_proxy():
    t0 = time.perf_counter()
    spec0 = CorpusSpec(n_functions=200, seed=7)
    spec1 = spec0.with_variant(100, "sum")  # value-preserving one-function edit
    old_text, new_text = corpus_source(spec0), corpus_source(spec1)

    base_built, base_state, _ = analyze_source(old_text)
    _, scratch, _ = analyze_source(new_text)
    full = scratch.rhs_evals
    counts = {}
    for mode in ("reluctant", "plain"):
        new_built, st, stats = _incremental(old_text, new_text, mode, "minimal",
                                            base_built, base_state)
        counts[mode] = stats["step1_rhs_evals"] + stats["step2_rhs_evals"]
        assert verify_solution(new_built.sys, st) == []
    elapsed = time.perf_counter() - t0
    assert counts["reluctant"] <= 0.10 * full, counts
    assert counts["plain"] <= 0.50 * full, counts
    assert elapsed < 30.0
    ok(5, f"200-function corpus: reluctant {counts['reluctant']}/{full} evals "
          f"({100*counts['reluctant']/full:.1f}%), plain {counts['plain']}/{full} "
          f"({100*counts['plain']/full:.1f}%), {elapsed:.1f}s")


# -- 6: consistency harness ----------------------------------------------------------------


def _scanned_contexts(units, nodes):
    """Reference for `recorded_contexts`: the contexts of the unknowns in
    `units` at the nodes `nodes[fn]` of each function, as the per-function
    scans it replaced collected them."""
    out = {}
    for u in units:
        if isinstance(u, NodeCtx) and u.node in nodes.get(u.fn, ()):
            out.setdefault(u.fn, set()).add(u.ctx)
    return out


def _run_sequence(spec0, seq_seed):
    """One 5-edit incremental session; returns its consistency report.

    Before each edit and after each solve, the context index must agree
    with the per-function scans it replaced."""
    text = corpus_source(spec0)
    built, st, _ = analyze_source(text)
    report = {"seed": seq_seed, "steps": []}
    specs = edit_sequence(spec0, 5, seed=seq_seed)
    cur_text = text
    for step, spec in enumerate(specs):
        new_text = corpus_source(spec)
        # destabilization scanned σ and stable at entry and return nodes
        ends = {fn: (ids[0], ids[-1]) for fn, ids in built.assignment.assign.items()}
        assert recorded_contexts(st, built.assignment) == \
            _scanned_contexts(list(st.sigma) + list(st.stable), ends), f"seq {seq_seed} step {step}"
        changes, built, _, _ = reanalyze(parse(cur_text).digests, built.assignment, st,
                                      parse(new_text),
                                      contexts=recorded_contexts(st, built.assignment))
        # postprocessing scanned σ at entry nodes
        entries = {fn: (cfg.entry,) for fn, cfg in built.cfgs.items()}
        assert recorded_contexts(st, built.assignment) == \
            _scanned_contexts(st.sigma, entries), f"seq {seq_seed} step {step}"
        violations = verify_solution(built.sys, st)
        report["steps"].append({"changed": sorted(changes.changed),
                                "violations": len(violations)})
        assert violations == [], f"seq {seq_seed} step {step}"
        full_prune(st, full_reachable_set(built.sys, st))
        cur_text = new_text
    # final from-scratch comparison; the scratch run reuses the incremental
    # node naming so equal ids denote equal program points
    _, scratch, _ = analyze_source(cur_text, assignment=built.assignment)
    inc_pts = {u: v for u, v in st.sigma.items() if isinstance(u, NodeCtx)}
    scr_pts = {u: v for u, v in scratch.sigma.items() if isinstance(u, NodeCtx)}
    shared = set(inc_pts) & set(scr_pts)
    worse = sum(1 for u in shared
                if not (leq(inc_pts[u], scr_pts[u]) and leq(scr_pts[u], inc_pts[u]))
                and leq(scr_pts[u], inc_pts[u]))
    incomparable = sum(1 for u in shared
                       if not leq(inc_pts[u], scr_pts[u]) and not leq(scr_pts[u], inc_pts[u]))
    report["total_points"] = len(shared)
    report["coarser"] = worse
    report["incomparable"] = incomparable
    report["coarser_fraction"] = (worse + incomparable) / len(shared) if shared else 0.0
    return report


def test_criterion_6_consistency_harness():
    spec0 = CorpusSpec(n_functions=200, seed=7)
    reports = []
    for seq_seed in range(1000, 1010):
        rep = _run_sequence(spec0, seq_seed)
        assert rep["coarser_fraction"] <= 0.05, rep
        reports.append(rep)
    assert len(reports) >= 10
    # deterministic report: rerunning a sequence reproduces it exactly
    again = _run_sequence(spec0, 1000)
    assert json.dumps(again, sort_keys=True) == json.dumps(reports[0], sort_keys=True)
    frac = max(r["coarser_fraction"] for r in reports)
    ok(6, f"10 five-edit sequences sound; worst coarser fraction {frac:.3f} ≤ 0.05; "
          f"report deterministic; context index agrees with per-function scans")


# -- 7: Proposition 1 property suite ----------------------------------------------------------


def test_criterion_7_strategy_tree_agreement():
    rng = random.Random(20240 + 1)
    unknowns = [GlobalVar(f"u{i}") for i in range(6)]
    bot = ValueSet.bot()
    checked = 0
    for _ in range(1000):
        t = random_tree(rng, unknowns)
        sigma = {u: random_value(rng) for u in unknowns}
        look1 = lambda u: sigma.get(u, bot)
        s1, v1 = eval_tree(t, look1)
        sigma2 = {u: random_value(rng) for u in unknowns}
        for q in s1.queried:
            sigma2[q] = sigma.get(q, bot)
        look2 = lambda u: sigma2.get(u, bot)
        s2, v2 = eval_tree(t, look2)
        assert v1 == v2
        assert list(s1.queried) == list(s2.queried)
        assert s1.sides == s2.sides
        assert s1.accesses == s2.accesses
        checked += 1
    assert checked >= 1000
    ok(7, f"{checked} random strategy trees: value/queried/sides agree on "
          f"lookups that coincide on the queried set")


# -- 8: oracle soundness --------------------------------------------------------------------


def test_criterion_8_oracle_soundness():
    rng = random.Random(4242)
    t0 = time.perf_counter()
    trials = 0
    for _ in range(500):
        n = rng.randrange(2, 13)
        sys_, rhs, deps, query = make_random_system(rng, n_unknowns=n)
        st = SolverState()
        run(sys_, st)
        assert verify_solution(sys_, st) == []
        oracle, reached = kleene_local_solution(rhs, deps, query)
        for u in reached:
            got = st.sigma.get(u, ValueSet.bot())
            want = oracle.get(u, ValueSet.bot())
            assert leq(want, got), f"{u!r}: oracle {want!r} ⋢ TD {got!r}"
        trials += 1
    elapsed = time.perf_counter() - t0
    assert trials >= 500
    assert elapsed < 10.0
    ok(8, f"{trials} random monotone systems: TD ⊒ Kleene least solution, "
          f"all partial post-solutions valid, {elapsed:.1f}s")


# -- 9: warning lifecycle -----------------------------------------------------------------------


RACY = """int shared = 0;
mutex m;
void* worker(void* p) {
  *p = 1;
  return NULL;
}
int main() {
  create(worker, &shared);
  lock(m);
  shared = 2;
  unlock(m);
  return 0;
}
"""

FIXED = RACY.replace("  *p = 1;", "  lock(m);\n  *p = 1;\n  unlock(m);")


def test_criterion_9_warning_lifecycle(tmp_path):
    src = tmp_path / "racy.mc"
    sd = str(tmp_path / "st")
    src.write_text(RACY)
    code, out, _ = _invoke(cli.cmd_analyze, str(src), cli.Options(state_dir=sd))
    assert code == 0
    warnings = json.loads(out)
    races = [w for w in warnings if w["kind"] == "race"]
    assert len(races) == 1 and "'shared'" in races[0]["message"]
    race_id = races[0]["id"]

    src.write_text(FIXED)
    code, out, _ = _invoke(cli.cmd_reanalyze, str(src), cli.Options(state_dir=sd))
    assert code == 0
    diff = json.loads(out)
    assert race_id in [w["id"] for w in diff["removed"]]
    assert race_id not in [w["id"] for w in diff["kept"]]

    store = cli.load_bundle(sd, cli.Options(state_dir=sd)).store  # base and journal
    for rec in [r for rows in store.accesses.values() for r in rows.get("shared", ())]:
        assert rec.locks == Lockset.of(["m"]), "stale unlocked access survived"
    ok(9, "race reported, then listed under `removed` after the fix; "
          "no stale access records remain")


# -- 10: widening-point restart ---------------------------------------------------------------


HYBRID = """int main() {
  i = 0;
  while (1) {
    i = i + 1;
    j = 0;
    while (j < 10) {
      j = j + 1;
    }
    if (i > 9) {
      i = 0;
    }
  }
  return 0;
}
"""


def _inner_body_node(built):
    for e in built.cfgs["main"].edges:
        if (isinstance(e.label, Guard) and e.label.sense
                and isinstance(e.label.cond, BinOp)
                and isinstance(e.label.cond.left, Var)
                and e.label.cond.left.name == "j"):
            return e.dst
    raise AssertionError("inner loop body not found")


def test_criterion_10_widening_point_restart():
    t0 = time.perf_counter()
    built, st, _ = analyze_source(HYBRID, domain="interval", restart_wpoint=True)
    elapsed = time.perf_counter() - t0
    u = node("main", _inner_body_node(built))
    inner = st.sigma[u]
    assert not inner.is_bot()
    i_val = inner.env.get("i")
    assert leq(i_val, Interval.of(1, 10)), f"i at inner loop body: {i_val!r}"
    assert verify_solution(built.sys, st) == []
    assert elapsed < 1.0

    # baseline for the record (not asserted)
    built_b, st_b, _ = analyze_source(HYBRID, domain="interval")
    baseline = st_b.sigma[node("main", _inner_body_node(built_b))].env.get("i")
    ok(10, f"hybrid inner-loop invariant proved: i = {i_val!r} ⊑ [1,10] "
           f"(baseline without restart: {baseline!r}), {elapsed:.3f}s")
