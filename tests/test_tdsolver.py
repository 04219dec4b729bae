import json
import random
import sys
import threading

import pytest

from minicheck import cli, tdsolver
from minicheck.consys import (
    INIT,
    MAIN,
    Ans,
    Context,
    Emit,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
)
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import Access, AddressSet, Env, LocalState, Lockset, ValueSet, leq
from minicheck.tdsolver import (
    Phase,
    Solver,
    SolverDepthError,
    SolverState,
    run,
    state_from_json,
    tables,
    verify_solution,
)

from recursive_solver import RecursiveSolver
from support import (
    FIG2,
    apply_section,
    analyze_source,
    assert_producers_are_the_last_evaluations,
    eqsys_from_dict,
    full_section,
    full_tables,
    kleene_local_solution,
    kleene_solve,
    make_random_system,
    random_tree,
    reloaded,
    side_maps_inverse,
    solver_section,
)

BETA0 = Context.of({"p": AddressSet.of(["g"])})
G = GlobalVar("g")


def vs(*xs):
    return ValueSet.of(xs)


def node(fn, i, ctx=Context.EMPTY):
    return NodeCtx(fn, i, ctx)


def simple_sys(rhs, query=None):
    return eqsys_from_dict(rhs, query, lambda u: ValueSet.bot())


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
    oracle = kleene_solve(rhs)
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
    sys_ = simple_sys({x: QGet(g, lambda v: Ans(v))}, query=x)
    st = SolverState()
    run(sys_, st)
    assert g in st.point
    assert list(st.infl[g]) == [x]


# -- side ----------------------------------------------------------------------


def test_side_unchanged_value_updates_bookkeeping_only():
    x, g = node("t", 0), GlobalVar("gg")
    sys_ = simple_sys({x: QSet(g, vs(1, 2), Ans(vs(0)))}, query=x)
    st = SolverState()
    run(sys_, st)
    destab_before = st.destabilizations
    solver = Solver(sys_, st)
    solver.side(x, g, vs(1))  # already below σ(g)
    assert st.sigma[g] == vs(1, 2)
    assert st.destabilizations == destab_before
    assert list(st.side_dep[g]) == [x]


def test_access_annotations_leave_the_solver_state_alone():
    x, y = node("t", 0), node("t", 1)
    rec = Access("write", Lockset.top(), "t", 0, 1)

    def solved(annotate):
        wrap = (lambda t: Emit("g", rec, t)) if annotate else (lambda t: t)
        sys_ = simple_sys({x: wrap(QGet(y, lambda v: wrap(QSet(G, v, Ans(v))))),
                           y: wrap(Ans(vs(1)))}, query=x)
        st = SolverState()
        run(sys_, st)
        return snapshot(st)

    got = solved(True)
    assert got == solved(False)
    assert (G, vs(1)) in got["sigma"]


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
    st.stable.add(b)
    st.stable.add(c)
    st.called.add(b)
    st.destabilize(a)
    assert b not in st.stable  # removed
    assert c in st.stable      # but not recursed through a called unknown


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
        sys_, rhs, deps, query = make_random_system(rng, n_unknowns=rng.randrange(2, 10))
        st = SolverState()
        run(sys_, st)
        assert verify_solution(sys_, st) == [], f"trial {trial}"
        oracle, reached = kleene_local_solution(rhs, deps, query)
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


def test_the_state_holds_exactly_the_persisted_tables():
    """Every table of the state is persisted but `called`, which is empty
    at rest: a table added without being persisted fails here, and so does
    one left over.  Every table's log is empty at rest too: `tables`
    starts one for each table that has rows, and the record ends them."""
    assert tdsolver.MAPS == ("infl", "side_dep", "side_infl")
    assert tdsolver.SETS == ("stable", "point")
    assert set(tdsolver.TABLES) == {"sigma", *tdsolver.MAPS, *tdsolver.SETS}
    assert set(vars(SolverState())) == {*tdsolver.TABLES, "called", "rhs_evals",
                                        "destabilizations"}
    empty = SolverState()
    assert tables(empty) == {"rhs_evals": 0, "destabilizations": 0}
    assert [getattr(empty, name).log for name in tdsolver.TABLES] == [None] * 6  # all new
    _, st, _ = analyze_source(FIG2)
    kinds = [tdsolver.Members] * 2 + [tdsolver.Values] + [tdsolver.Rows] * 3
    logged = [getattr(st, name) for name in tdsolver.TABLES]
    assert [type(t) for t in logged] == kinds
    assert all(t and t.log is None for t in logged)
    assert tables(st) == {"rhs_evals": st.rhs_evals, "destabilizations": st.destabilizations}
    assert [t.log for t in logged] == [{}] * 6
    solver_section(tables(st), st)
    assert [t.log for t in logged] == [None] * 6


@pytest.mark.parametrize("table, call", [
    ("sigma", lambda t, u: t.update({u: None})), ("sigma", lambda t, u: t.setdefault(u)),
    ("sigma", lambda t, u: t.popitem()), ("sigma", lambda t, u: t.clear()),
    ("sigma", lambda t, u: t.__delitem__(u)), ("sigma", lambda t, u: t.__ior__({u: None})),
    ("stable", lambda t, u: t.update([u])), ("stable", lambda t, u: t.remove(u)),
    ("stable", lambda t, u: t.pop()), ("stable", lambda t, u: t.clear()),
    ("stable", lambda t, u: t.intersection_update([u])),
    ("stable", lambda t, u: t.symmetric_difference_update([u])),
    ("point", lambda t, u: t.__ior__({u})), ("point", lambda t, u: t.__iand__({u})),
    ("point", lambda t, u: t.__isub__({u})), ("point", lambda t, u: t.__ixor__({u})),
])
def test_a_mutator_that_does_not_log_raises(table, call):
    """σ, stable and point are written only by the methods that log: the
    other mutators of a dict or a set raise and change nothing."""
    st = SolverState()
    st.sigma[INIT] = ValueSet.of([0])
    st.stable.add(INIT)
    st.point.add(INIT)
    with pytest.raises(TypeError, match="only by methods that log"):
        call(getattr(st, table), INIT)
    assert INIT in getattr(st, table)


def test_sigma_gives_its_own_key_object_for_an_equal_one():
    key, copy = NodeCtx("f", 1, Context.EMPTY), NodeCtx("f", 1, Context.EMPTY)
    sigma = tdsolver.Values({GlobalVar("g"): ValueSet.of([1]), key: ValueSet.of([0])})
    assert sigma.own(copy) is key and sigma.own(key) is key
    other = NodeCtx("f", 2, Context.EMPTY)
    assert sigma.own(other) is other


def test_state_json_roundtrip_and_warm_restart():
    built, st, _ = analyze_source(FIG2)
    doc = solver_section({}, st)
    assert list(doc) == ["unknowns", "values", "put", "gone"] and doc["gone"] == {}
    assert "format" not in doc  # the bundle's format covers the section
    assert "called" not in doc["put"]
    st2 = SolverState()
    state_from_json(st2, doc)
    assert st2.sigma == st.sigma
    assert {k: list(v) for k, v in st2.infl.items()} == {k: list(v) for k, v in st.infl.items()}
    assert st2.stable == st.stable
    assert st2.point == st.point
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
    assert (st2.rhs_evals, st2.destabilizations) == (st.rhs_evals, st.destabilizations)


def assert_interned(doc, st):
    """Each unknown is written once, each distinct value once."""
    keys = [json.dumps(u, sort_keys=True) for u in doc["unknowns"]]
    assert len(keys) == len(set(keys))
    mentioned = set(st.sigma) | st.stable | st.point
    for m in (st.infl, st.side_dep, st.side_infl):
        mentioned |= {u for u, vs_ in m.items() if vs_} | {v for vs_ in m.values() for v in vs_}
    assert len(keys) == len(mentioned)
    values = [json.dumps(v, sort_keys=True) for v in doc["values"]]
    assert len(values) == len(set(values))


def test_state_json_roundtrip_on_random_systems():
    """A base section reloads to the state it was written from, and the
    section between two unrelated states turns the one into the other."""
    rng = random.Random(4242)
    previous = SolverState()
    for _ in range(60):
        sys_, *_ = make_random_system(rng, n_unknowns=rng.randrange(2, 12))
        st = SolverState()
        run(sys_, st)
        doc = json.loads(json.dumps(solver_section({}, st)))
        assert_interned(doc, st)
        assert_same_state(reloaded(st), st)
        delta = full_section(full_tables(previous), st)
        replayed = reloaded(previous)
        apply_section(replayed, delta)
        assert_same_state(replayed, st)
        previous = st


def test_a_producer_that_side_effects_a_target_twice_is_recorded_once_on_random_systems():
    """A rhs may side-effect one target several times; it is recorded once
    as a producer of it, as a pure evaluation joins them all."""
    rng = random.Random(515)
    joined = 0
    for _ in range(200):
        sys_, rhs, deps, _ = make_random_system(rng, n_unknowns=rng.randrange(2, 12))
        st = SolverState()
        run(sys_, st)
        assert_producers_are_the_last_evaluations(sys_, st)
        joined += any(len(sides) != len(set(sides)) for x, (_, sides) in deps.items()
                      if x in st.stable)
    assert joined > 20


def test_state_json_roundtrip_on_the_corpus():
    _, st, _ = analyze_source(corpus_source(CorpusSpec(n_functions=40, seed=3)))
    doc = solver_section({}, st)
    assert_interned(doc, st)
    assert len(doc["values"]) < len(doc["put"]["sigma"])
    assert list(doc["put"]) == ["sigma", "infl", "side_dep", "side_infl", "stable", "point",
                                "counters"]
    assert doc["put"]["counters"] == {"rhs_evals": st.rhs_evals,
                                      "destabilizations": st.destabilizations}
    written = json.dumps(doc)
    st2 = SolverState()
    apply_section(st2, doc)
    assert "unknowns" not in doc and "values" not in doc  # freed as they are decoded
    assert_same_state(st2, st)
    assert json.dumps(solver_section({}, st2)) == written
    # σ's rows compare by identity: a reloaded value is a new object
    assert solver_section(tables(st), st) == {"unknowns": [], "values": [], "put": {},
                                              "gone": {}}
    assert len(full_section(full_tables(st), st2)["put"]["sigma"]) == len(st.sigma)


def test_the_decoder_leaves_the_counters_alone(tmp_path):
    """The decoder returns the counters a section holds and sets none, so a
    caller that counts the destabilizations during a call sees none in a
    load; the replay restores them, so a reload has the writer's."""
    _, st, _ = analyze_source(corpus_source(CorpusSpec(n_functions=20, seed=3)))
    doc = solver_section({}, st)
    st2 = SolverState()
    st2.rhs_evals, st2.destabilizations = 5, 7
    assert state_from_json(st2, doc) == {"rhs_evals": st.rhs_evals,
                                         "destabilizations": st.destabilizations}
    assert (st2.rhs_evals, st2.destabilizations) == (5, 7)
    assert state_from_json(st2, full_section(full_tables(st2), st2)) is None
    opts = cli.Options(state_dir=str(tmp_path))
    written = cli.run_analysis(corpus_source(CorpusSpec(n_functions=20, seed=3)), "p.mc", opts)
    cli.save_bundle(opts.state_dir, written.session, opts)
    state = cli.load_bundle(opts.state_dir, opts).state
    assert (state.rhs_evals, state.destabilizations) == \
        (written.session.state.rhs_evals, written.session.state.destabilizations) != (0, 0)


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
    sys_ = simple_sys({x: QSet(g, Lockset.top(), Ans(vs(1)))}, query=x)
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
        sys_ = eqsys_from_dict(rhs, nodes[0], bot_of)
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
