import json
import random
import sys
import threading

import pytest

from minicheck import cli, tdsolver
from minicheck.consys import (
    INIT,
    MAIN,
    AccCollector,
    Ans,
    Context,
    EqSys,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
)
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import AccessSet, AddressSet, Env, LocalState, Lockset, ValueSet, leq
from minicheck.tdsolver import (
    Phase,
    Solver,
    STATE_FORMAT,
    SolverDepthError,
    SolverState,
    run,
    state_from_json,
    state_to_json,
    verify_solution,
)

from recursive_solver import RecursiveSolver
from support import (
    FIG2,
    analyze_source,
    kleene_local_solution,
    kleene_solve,
    make_random_system,
    random_tree,
    side_maps_inverse,
)

BETA0 = Context.of({"p": AddressSet.of(["g"])})
G = GlobalVar("g")


def vs(*xs):
    return ValueSet.of(xs)


def node(fn, i, ctx=Context.EMPTY):
    return NodeCtx(fn, i, ctx)


def simple_sys(rhs, leaf=(), starts=None, query=None):
    return EqSys.from_dict(rhs, leaf, starts or {}, query, lambda u: ValueSet.bot())


# -- the running example ------------------------------------------------------


def expected_ex2_sigma(config_top, addr_top):
    ls = lambda env: LocalState(Env.of(env), Lockset.top())
    return {
        node("foo", 0, BETA0): ls({"p": AddressSet.of(["g"]), "ret": addr_top}),
        node("foo", 1, BETA0): ls({"p": AddressSet.of(["g"]), "ret": addr_top}),
        node("foo", 2, BETA0): ls({"p": AddressSet.of(["g"]), "ret": AddressSet.null()}),
        node("main", 3): ls({"ret": config_top}),
        node("main", 4): ls({"ret": config_top}),
        node("main", 5): ls({"ret": vs(0, 1)}),
        G: vs(0, 1),
    }


def test_fig2_run_reproduces_example_solution():
    built, st, _ = analyze_source(FIG2)
    expected = expected_ex2_sigma(ValueSet.top(), AddressSet.top())
    for u, v in expected.items():
        assert st.sigma[u] == v, f"{u!r}: {st.sigma[u]!r} != {v!r}"
    node_unknowns = [u for u in st.sigma if isinstance(u, NodeCtx)]
    assert len(node_unknowns) == 6
    assert all(u in st.stable for u in expected)


def test_fig2_run_reproduces_example_dependency_tables():
    built, st, _ = analyze_source(FIG2)

    def table(m):
        return {k: list(v) for k, v in m.items()}

    assert table(st.infl) == {
        INIT: [MAIN],
        G: [node("main", 5)],
        node("foo", 0, BETA0): [node("foo", 1, BETA0)],
        node("foo", 1, BETA0): [node("foo", 2, BETA0)],
        node("foo", 2, BETA0): [node("main", 4)],
        node("main", 3): [node("main", 4)],
        node("main", 4): [node("main", 5)],
        node("main", 5): [MAIN],
    }
    assert table(st.side_dep) == {
        G: [INIT, node("foo", 1, BETA0)],
        node("foo", 0, BETA0): [node("main", 4)],
        node("main", 3): [MAIN],
    }
    assert table(st.side_infl) == {
        INIT: [G],
        node("foo", 1, BETA0): [G],
        node("main", 4): [node("foo", 0, BETA0)],
        MAIN: [node("main", 3)],
    }


def test_fig2_point_contains_exactly_the_global():
    _, st, _ = analyze_source(FIG2)
    assert st.point == {G}


def test_second_run_is_free():
    built, st, _ = analyze_source(FIG2)
    before = st.rhs_evals
    run(built.sys, st)
    assert st.rhs_evals == before


def test_solve_on_stable_unknown_does_nothing():
    x = node("t", 0)
    sys_ = simple_sys({x: Ans(vs(1))}, query=x)
    st = SolverState()
    st.stable.add(x)
    solver = Solver(sys_, st)
    solver.solve(Phase.WIDEN, x)
    assert st.rhs_evals == 0 and x not in st.sigma


def test_constant_rhs_takes_one_evaluation():
    x = node("t", 0)
    sys_ = simple_sys({x: Ans(vs(4))}, query=x)
    st = SolverState()
    run(sys_, st)
    assert st.sigma[x] == vs(4)
    assert st.rhs_evals == 1


def test_self_loop_matches_kleene_oracle():
    head = node("t", 0)
    rhs = {head: QGet(head, lambda v: Ans(v.join(vs(1))))}
    sys_ = simple_sys(rhs, query=head)
    st = SolverState()
    run(sys_, st)
    assert head in st.point
    oracle = kleene_solve(rhs, {})
    assert st.sigma[head] == oracle[head] == vs(1)
    assert verify_solution(sys_, st) == []


def test_two_cycle_marks_the_reentered_unknown_as_widening_point():
    a, b = node("t", 0), node("t", 1)
    rhs = {
        a: QGet(b, lambda v: Ans(v.join(vs(1)))),
        b: QGet(a, lambda v: Ans(v)),
    }
    sys_ = simple_sys(rhs, query=a)
    st = SolverState()
    run(sys_, st)
    # solving a queries b, which queries a while a is being solved
    assert a in st.point
    assert st.sigma[a] == vs(1) and st.sigma[b] == vs(1)
    assert verify_solution(sys_, st) == []


def test_eval_of_leaf_marks_point_and_records_influence():
    x, g = node("t", 0), GlobalVar("gg")
    sys_ = simple_sys({x: QGet(g, lambda v: Ans(v))}, leaf=[g], query=x)
    st = SolverState()
    run(sys_, st)
    assert g in st.point
    assert list(st.infl[g]) == [x]


# -- side ----------------------------------------------------------------------


def test_side_unchanged_value_updates_bookkeeping_only():
    x, g = node("t", 0), GlobalVar("gg")
    sys_ = simple_sys({x: QSet(g, vs(1), Ans(vs(0)))}, leaf=[g],
                      starts={g: vs(1, 2)}, query=x)
    st = SolverState()
    run(sys_, st)
    destab_before = st.destabilizations
    solver = Solver(sys_, st)
    solver.side(x, g, vs(1))  # already below σ(g)
    assert st.sigma[g] == vs(1, 2)
    assert st.destabilizations == destab_before
    assert list(st.side_dep[g]) == [x]


def test_side_to_access_collector_is_deferred_but_tracked():
    x, acc = node("t", 0), AccCollector("g")
    bot_of = lambda u: AccessSet.bot() if isinstance(u, AccCollector) else ValueSet.bot()
    sys_ = EqSys.from_dict({x: Ans(vs(0))}, [acc], {}, x, bot_of)
    st = SolverState()
    solver = Solver(sys_, st)
    rec = AccessSet.bot()
    solver.side(x, acc, rec)
    assert acc not in st.sigma
    assert list(st.side_dep[acc]) == [x]
    assert list(st.side_infl[x]) == [acc]


def test_side_changed_value_destabilizes_readers():
    built, st, _ = analyze_source(FIG2)
    solver = Solver(built.sys, st)
    solver.side(node("x", 99), G, vs(7))
    assert st.sigma[G] == vs(0, 1, 7)
    assert node("main", 5) not in st.stable


# -- destabilize -----------------------------------------------------------------


def test_destabilize_transitive_closure_from_example_tables():
    _, st, _ = analyze_source(FIG2)
    st.destabilize(node("foo", 2, BETA0))
    removed = {node("main", 4), node("main", 5), MAIN}
    assert removed & st.stable == set()
    assert node("foo", 1, BETA0) in st.stable
    assert node("foo", 2, BETA0) in st.stable  # only its dependents go


def test_destabilize_global_removes_only_its_readers():
    _, st, _ = analyze_source(FIG2)
    stable_before = set(st.stable)
    st.destabilize(G)
    assert stable_before - st.stable == {node("main", 5), MAIN}
    assert G not in st.infl  # influence set consumed


def test_destabilize_without_influences_is_noop():
    st = SolverState()
    st.stable.add(node("t", 0))
    st.destabilize(node("t", 9))
    assert node("t", 0) in st.stable


def test_destabilize_skips_called_unknowns():
    st = SolverState()
    a, b, c = node("t", 0), node("t", 1), node("t", 2)
    st.infl[a] = {b: None}
    st.infl[b] = {c: None}
    st.stable |= {b, c}
    st.called.add(b)
    st.destabilize(a)
    assert b not in st.stable  # removed
    assert c in st.stable      # but not recursed through a called unknown


def test_destabilize_also_removes_from_superstable():
    _, st, _ = analyze_source(FIG2)
    st.superstable = set(st.stable)
    st.destabilize(G)
    assert node("main", 5) not in st.superstable


# -- verify_solution -------------------------------------------------------------


def test_verify_accepts_the_example_solution():
    built, st, _ = analyze_source(FIG2)
    assert verify_solution(built.sys, st) == []


def test_verify_flags_an_underapproximated_global():
    built, st, _ = analyze_source(FIG2)
    st.sigma[G] = vs(0)  # drop the thread's contribution
    violations = verify_solution(built.sys, st)
    assert violations, "expected a violation after corrupting σ(g)"
    assert any(v.kind == "side" and v.unknown == G for v in violations)


def test_verify_on_empty_state():
    built, _, _ = analyze_source(FIG2)
    assert verify_solution(built.sys, SolverState()) == []


# -- randomized soundness ----------------------------------------------------------


def test_td_result_bounds_kleene_oracle_on_random_systems():
    rng = random.Random(1234)
    for trial in range(120):
        sys_, rhs, deps, starts, query = make_random_system(rng, n_unknowns=rng.randrange(2, 10))
        st = SolverState()
        run(sys_, st)
        assert verify_solution(sys_, st) == [], f"trial {trial}"
        oracle, reached = kleene_local_solution(rhs, deps, starts, query)
        for u in reached:
            got = st.sigma.get(u, ValueSet.bot())
            want = oracle.get(u, ValueSet.bot())
            assert leq(want, got), f"trial {trial}: {u!r}: oracle {want!r} ⋢ TD {got!r}"
        assert side_maps_inverse(st)


def test_locality_unqueried_unknowns_stay_untouched():
    x, y = node("t", 0), node("t", 1)
    rhs = {x: Ans(vs(1)), y: Ans(vs(2))}
    sys_ = simple_sys(rhs, query=x)
    st = SolverState()
    run(sys_, st)
    assert y not in st.sigma and y not in st.stable and y not in st.infl


def test_termination_accounting_is_bounded():
    rng = random.Random(99)
    for _ in range(30):
        sys_, rhs, *_ = make_random_system(rng, n_unknowns=10)
        st = SolverState()
        run(sys_, st)
        assert st.rhs_evals < 5000


# -- persistence -------------------------------------------------------------------


def test_state_json_roundtrip_and_warm_restart():
    built, st, _ = analyze_source(FIG2)
    doc = state_to_json(st)
    assert doc["format"] == STATE_FORMAT
    assert "superstable" not in doc and "called" not in doc
    st2 = state_from_json(doc)
    assert st2.sigma == st.sigma
    assert {k: list(v) for k, v in st2.infl.items()} == {k: list(v) for k, v in st.infl.items()}
    assert st2.stable == st.stable
    assert st2.point == st.point
    assert st2.starts == st.starts
    before = st2.rhs_evals
    run(built.sys, st2)
    assert st2.rhs_evals == before  # everything stable after reload


def assert_same_state(st2, st):
    """Everything persisted survives, maps with their members' order."""
    def ordered(m):
        return {k: list(v) for k, v in m.items() if v}

    assert st2.sigma == st.sigma
    assert ordered(st2.infl) == ordered(st.infl)
    assert ordered(st2.side_dep) == ordered(st.side_dep)
    assert ordered(st2.side_infl) == ordered(st.side_infl)
    assert st2.stable == st.stable
    assert st2.point == st.point
    assert st2.starts == st.starts
    assert (st2.rhs_evals, st2.destabilizations) == (st.rhs_evals, st.destabilizations)


def assert_interned(doc, st):
    """Each unknown is written once, each distinct value once."""
    keys = [json.dumps(u, sort_keys=True) for u in doc["unknowns"]]
    assert len(keys) == len(set(keys))
    mentioned = set(st.sigma) | st.stable | st.point | set(st.starts)
    for m in (st.infl, st.side_dep, st.side_infl):
        mentioned |= {u for u, vs_ in m.items() if vs_} | {v for vs_ in m.values() for v in vs_}
    assert len(keys) == len(mentioned)
    values = [json.dumps(v, sort_keys=True) for v in doc["values"]]
    assert len(values) == len(set(values))


def test_state_json_roundtrip_on_random_systems():
    rng = random.Random(4242)
    for _ in range(60):
        sys_, *_ = make_random_system(rng, n_unknowns=rng.randrange(2, 12))
        st = SolverState()
        run(sys_, st)
        doc = json.loads(json.dumps(state_to_json(st)))
        assert_interned(doc, st)
        assert_same_state(state_from_json(doc), st)


def test_state_json_roundtrip_on_the_corpus():
    _, st, _ = analyze_source(corpus_source(CorpusSpec(n_functions=40, seed=3)))
    doc = json.loads(json.dumps(state_to_json(st)))
    assert_interned(doc, st)
    assert len(doc["values"]) < len(doc["sigma"])
    st2 = state_from_json(doc)
    assert_same_state(st2, st)
    assert json.dumps(state_to_json(st2)) == json.dumps(doc)


def test_state_format_is_checked():
    with pytest.raises(ValueError):
        state_from_json({"format": 99})


def test_wrong_domain_rhs_is_an_eval_error_carrying_the_unknown():
    from minicheck.consys import EvalError
    x = node("t", 0)
    sys_ = simple_sys({x: Ans(Lockset.top())}, query=x)  # expected: ValueSet
    with pytest.raises(EvalError) as e:
        run(sys_, SolverState())
    assert e.value.unknown == x


def test_wrong_domain_side_is_an_eval_error_carrying_the_target():
    from minicheck.consys import EvalError
    x, g = node("t", 0), GlobalVar("gg")
    sys_ = simple_sys({x: QSet(g, Lockset.top(), Ans(vs(1)))}, leaf=[g], query=x)
    with pytest.raises(EvalError) as e:
        run(sys_, SolverState())
    assert e.value.unknown == g


# -- the explicit solve stack ------------------------------------------------------


def chain(n):
    """A system whose query depends on a chain of `n` unknowns."""
    xs = [node("chain", i) for i in range(n)]
    rhs = {x: QGet(y, Ans) for x, y in zip(xs, xs[1:])}
    rhs[xs[-1]] = Ans(vs(1))
    return xs, simple_sys(rhs, query=xs[0])


def test_a_20000_unknown_chain_solves_on_the_calling_thread():
    limit, threads = sys.getrecursionlimit(), threading.active_count()
    xs, sys_ = chain(20_000)
    st = SolverState()
    Solver(sys_, st).solve(Phase.WIDEN, xs[0])
    assert sys.getrecursionlimit() == limit and threading.active_count() == threads
    assert all(st.sigma[x] == vs(1) for x in xs)
    assert st.stable == set(xs) and not st.called and st.rhs_evals == len(xs)


def test_the_depth_bound_counts_frames_on_the_stack(monkeypatch):
    xs, sys_ = chain(50)
    monkeypatch.setattr(tdsolver, "MAX_SOLVE_DEPTH", 50)
    run(sys_, SolverState())
    monkeypatch.setattr(tdsolver, "MAX_SOLVE_DEPTH", 49)
    with pytest.raises(SolverDepthError, match=f"^solve depth exceeded 49 at {xs[49]!r}$"):
        run(sys_, SolverState())


def snapshot(st):
    """The solver state, with the order of every insertion-ordered map."""
    def ordered(m):
        return [(u, list(members)) for u, members in m.items()]

    return {
        "sigma": list(st.sigma.items()),
        "infl": ordered(st.infl),
        "stable": st.stable,
        "point": st.point,
        "superstable": st.superstable,
        "called": st.called,
        "side_dep": ordered(st.side_dep),
        "side_infl": ordered(st.side_infl),
        "counters": (st.rhs_evals, st.destabilizations),
    }


def solved_by(solver_cls, fn):
    """`fn()` with `solver_cls` as the solver that `run` drives."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tdsolver, "Solver", solver_cls)
        return fn()


@pytest.mark.parametrize("restart_wpoint", [False, True])
def test_explicit_stack_matches_the_recursive_solver_on_random_systems(restart_wpoint,
                                                                       monkeypatch):
    rng = random.Random(606 + restart_wpoint)
    narrowed = hits = 0
    for trial in range(300):
        n, n_globals = rng.randrange(2, 16), rng.randrange(1, 4)
        sys1, *_ = make_random_system(rng, n, n_globals)
        # an "edit": a new system over the same unknowns, re-solved from the
        # old state after destabilizing some of them
        sys2, *_ = make_random_system(rng, n, n_globals)
        edited = rng.sample([node("t", i) for i in range(n)], rng.randrange(0, n + 1))
        monkeypatch.setattr(tdsolver, "MAX_WPOINT_RESTARTS", rng.choice([0, 1, 32]))

        def go():
            st = SolverState()
            stats = [run(sys1, st, restart_wpoint=restart_wpoint)]
            first = snapshot(st)
            for u in edited:
                st.stable.discard(u)
                st.destabilize(u)
            stats.append(run(sys2, st, edited, restart_wpoint=restart_wpoint))
            return first, snapshot(st), stats

        got = solved_by(Solver, go)
        assert got == solved_by(RecursiveSolver, go), f"trial {trial}"
        narrowed += bool(got[0]["point"])
        hits += any(s["diagnostics"] for s in got[2])
    assert narrowed > 100 and (hits > 10 if restart_wpoint else hits == 0)


class OutOfBudget(Exception):
    pass


@pytest.mark.parametrize("restart_wpoint", [False, True])
def test_explicit_stack_matches_the_recursive_solver_on_non_monotone_systems(restart_wpoint,
                                                                            monkeypatch):
    # Data-dependent trees that side-effect any unknown reach paths monotone
    # systems do not, such as a narrowing evaluation that leaves its unknown
    # unstable.  Such systems need not converge, so a run is cut after a
    # budget of `bot_of` calls, which both solvers make at the same steps.
    rng = random.Random(99 + restart_wpoint)
    cut = 0
    for trial in range(300):
        n, n_globals = rng.randrange(2, 12), rng.randrange(1, 4)
        nodes = [node("t", i) for i in range(n)]
        globs = [GlobalVar(f"g{j}") for j in range(n_globals)]
        budget = [0]

        def bot_of(u):
            budget[0] -= 1
            if budget[0] < 0:
                raise OutOfBudget
            return ValueSet.bot()

        rhs = {x: random_tree(rng, nodes + globs) for x in nodes}
        sys_ = EqSys.from_dict(rhs, globs, {}, nodes[0], bot_of)
        monkeypatch.setattr(tdsolver, "MAX_WPOINT_RESTARTS", rng.choice([0, 1, 32]))

        def go():
            budget[0] = 300
            st = SolverState()
            try:
                stats = run(sys_, st, restart_wpoint=restart_wpoint)
            except OutOfBudget:
                stats = None
            return snapshot(st), stats

        got = solved_by(Solver, go)
        assert got == solved_by(RecursiveSolver, go), f"trial {trial}"
        cut += got[1] is None
    assert 0 < cut < 30


@pytest.mark.parametrize("mode,restart,wpoint_restart,domain", [
    ("reluctant", "minimal", False, "valueset"),
    ("plain", "minimal", True, "interval"),
    ("reluctant", "off", True, "valueset"),
])
def test_explicit_stack_matches_the_recursive_solver_on_corpus_edits(
        mode, restart, wpoint_restart, domain):
    spec = CorpusSpec(n_functions=40, seed=7)
    specs = [spec]
    for idx, variant in ((20, "sum"), (3, "gval:17"), (9, "const:9"), (5, "extra:4")):
        specs.append(specs[-1].with_variant(idx, variant))
    specs += edit_sequence(specs[-1], 4, seed=3)
    texts = [corpus_source(s) for s in specs]
    opts = cli.Options(mode=mode, restart=restart, wpoint_restart=wpoint_restart,
                       domain=domain)

    def go():
        res = cli.run_analysis(texts[0], "p.mc", opts)
        out = [(snapshot(res.session.state), res.run_stats, res.post_stats)]
        for text in texts[1:]:
            res = cli.run_reanalysis(res.session, text, "p.mc", opts)
            out.append((snapshot(res.session.state), res.run_stats, res.post_stats))
        return out

    got = solved_by(Solver, go)
    assert got == solved_by(RecursiveSolver, go)
    assert all(stats["step1_rhs_evals"] + stats["step2_rhs_evals"] for _, stats, _ in got)
