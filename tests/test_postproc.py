import copy
import json
import random

import pytest

from minicheck import cli, journal, postproc
from minicheck.consys import Context, NodeCtx, sort_key
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import Access, AddressSet, Lockset, ValueSet
from minicheck.increment import Reach, decide_reuse, reanalyze, recorded_contexts
from minicheck.minic import NodeAssignment, parse
from minicheck.postproc import (
    PostIndex,
    WarnStore,
    diff_warnings,
    make_warning,
    postprocess,
    races,
)
from minicheck.tdsolver import SolverState, tables


from support import (
    FIG2,
    FIG2_EDIT,
    analyze_source,
    full_postprocess,
    differences,
    full_reachable_set,
    full_section,
    full_tables,
    inexact_infl,
    log_stable,
    logged_differences,
    pairwise_races,
    persisted,
    solver_section,
)

BETA0 = Context.of({"p": AddressSet.of(["g"])})


def full_pipeline(text, domain="valueset", assignment=None):
    built, st, stats = analyze_source(text, domain=domain, assignment=assignment)
    store, stats = postprocess_analysis(built, st, stats)
    return built, st, store, stats


def postprocess_analysis(built, st, run_stats):
    """The postprocess of `st`, which `run` solved from nothing with
    `run_stats`, as an analysis makes it: from the empty `Reach` and index."""
    empty = SolverState()
    reuse = decide_reuse(st, tables(empty), run_stats["reads"])
    prev = WarnStore()
    prev.index = PostIndex.of(prev, Reach.of(empty, built.sys.query).find_leaves(built.sys), {},
                              NodeAssignment())
    return postprocess(built, st, prev, "<test>", reuse)


def incremental_pipeline(old_text, new_text, prev_store, built_old, st,
                         restart="minimal"):
    _, new_built, _, reuse = reanalyze(
        parse(old_text).digests, built_old.assignment, st, parse(new_text), restart=restart,
        contexts=prev_store.index.contexts)
    store, stats = postprocess(new_built, st, prev_store, "<test>", reuse)
    return new_built, store, stats


# -- the race rule ------------------------------------------------------------------


def _mini_store(records):
    store = WarnStore()
    store.accesses["p"] = {"G": frozenset(records)}
    return store


class _NoCfg:
    cfgs = {}


def test_common_lock_means_no_race():
    recs = [Access("write", Lockset.of(["m"]), "f", 0, 1),
            Access("read", Lockset.of(["m"]), "f", 1, 2)]
    assert races(_mini_store(recs), _NoCfg(), "<t>") == []


def test_disjoint_locksets_race_cites_both_accesses():
    recs = [Access("write", Lockset.top(), "f", 0, 1),
            Access("read", Lockset.of(["m"]), "f", 1, 2)]
    (w,) = races(_mini_store(recs), _NoCfg(), "<t>")
    assert w.kind == "race" and "'G'" in w.message


def test_two_reads_never_race():
    recs = [Access("read", Lockset.top(), "f", 0, 1),
            Access("read", Lockset.top(), "f", 1, 2)]
    assert races(_mini_store(recs), _NoCfg(), "<t>") == []


def test_fig2_reports_race_on_g():
    built, st, store, stats = full_pipeline(FIG2)
    kinds = {(w.kind, w.message) for w in store.warnings}
    assert ("race", "possible data race on global 'g'") in kinds
    (race,) = [w for w in store.warnings if w.kind == "race"]
    assert len(race.locations) == 2  # the store in foo and the read in main


# -- postprocess mechanics ------------------------------------------------------------


def test_from_scratch_postprocess_evaluates_every_stable_rhs():
    built, st, store, stats = full_pipeline(FIG2)
    assert stats["reused"] == []
    assert len(stats["reevaluated"]) == 8  # six nodes + init + __main


def test_incremental_postprocess_reevaluates_only_destabilized_unknowns():
    built, st, store0, _ = full_pipeline(FIG2)
    new_built, store1, stats = incremental_pipeline(FIG2, FIG2_EDIT, store0, built, st,
                                                    restart="off")
    nodes = [u for u in stats["reevaluated"] if isinstance(u, NodeCtx)]
    assert {(u.fn, u.node) for u in nodes} == {("foo", 6), ("foo", 2), ("main", 5)}
    assert len(stats["reused"]) >= 4


def test_two_postprocesses_without_edit_are_byte_identical():
    built, st, store0, _ = full_pipeline(FIG2)
    # an incremental no-op run: everything stays untouched
    new_built, store1, stats = incremental_pipeline(FIG2, FIG2, store0, built, st)
    assert stats["reevaluated"] == []
    assert (store0.warnings, store0.accesses) == (store1.warnings, store1.accesses)


def test_postprocess_never_changes_sigma():
    built, st, stats = analyze_source(FIG2)
    before = dict(st.sigma)
    postprocess_analysis(built, st, stats)
    # prune may drop entries, but no value may change
    for u, v in st.sigma.items():
        assert before[u] == v


# -- the incremental walk and pruning against the full ones ----------------------------


def _reference_reanalysis(session, text, filename, opts):
    """The pipeline with the full walk, pruning and postprocessing, and with
    the untouched unknowns read off a `StableLog`."""
    prog = parse(text)
    log = log_stable(session.state)
    _, built, _, _ = reanalyze(session.digests, session.assignment, session.state, prog,
                               opts.mode, opts.restart, opts.domain,
                               restart_wpoint=opts.wpoint_restart,
                               contexts=recorded_contexts(session.state, session.assignment))
    store, stats, reached = full_postprocess(built, session.state, session.store,
                                             log.untouched(), filename)
    return cli.Session(prog.digests, built.assignment, session.state, store), stats, reached


def _ordered(m):
    return [(u, list(members)) for u, members in m.items()]


def _assert_same_as_the_full_walk(versions, opts, monkeypatch, serve=True, walks_less=False):
    """Run `versions`, each a text or a (text, file name) pair, through the
    pipeline and through the reference side by side, as `serve` does (one
    session in memory) or, without `serve`, as the command line does (every
    session loaded from a bundle's record).  After every step both leave
    the same state, every map in order, the same store and split of the
    reached unknowns into re-evaluated and reused ones; each reached stable
    unknown is in the ``infl`` rows of exactly what its rhs queries; the
    walk leaves σ's keys alone, reaches what the full walk reaches with the
    same successors, evaluates every reached rhs that is not reusable and no
    other; the
    untouched unknowns the pipeline derives are, on every unknown with a
    rhs, those that a `StableLog` finds never left stable.  The `Reach`
    read off a loaded state is the full walk's on that state.  The solver
    section written from the logs is the one a comparison of every row
    finds, and the logs, cut down to the rows that differ, are those that a
    comparison with a snapshot finds, at the reuse decision and after
    pruning.  At the decision, every unknown of σ that `Reuse.changed`
    names is mapped to σ's own key object.
    With `walks_less`, a step that reuses in memory walks fewer unknowns
    than the full walk reaches."""
    walks, decided, starts, befores = [], [], [], []
    walk, post, reanalyze_ = postproc.reachable_set, cli.postprocess, cli.reanalyze

    def reachable_set(sys_, st, visit, reuse, known):
        keys = list(st.sigma)
        walks.append(walk(sys_, st, visit, reuse, known))
        assert list(st.sigma) == keys, "the walk must not modify the solution"
        return walks[-1]

    monkeypatch.setattr(postproc, "reachable_set", reachable_set)

    def postprocess(built, st, prev, filename, reuse):
        unlogged = {u for u in reuse.untouched ^ st.stable.untouched() if built.sys.has_rhs(u)}
        decided.append((built.sys, reuse, unlogged))
        assert logged_differences(st) == differences(befores[-1], st)
        own = {u: u for u in st.sigma}
        assert all(own.get(u, v) is v for u, v in reuse.changed.items()), \
            "the walk is handed σ's own key objects"
        return post(built, st, prev, filename, reuse)

    monkeypatch.setattr(cli, "postprocess", postprocess)

    def reanalyze(*args, **kwargs):
        out = reanalyze_(*args, **kwargs)
        starts.append(out[3].start)
        return out

    monkeypatch.setattr(cli, "reanalyze", reanalyze)
    session, reference = cli.Session.empty(), cli.Session.empty()
    for step, version in enumerate(versions):
        text, filename = (version, "prog.mc") if isinstance(version, str) else version
        if not serve:
            session, reference = _reloaded(session), _reloaded(reference)
            if step:
                _assert_the_reach_is_the_full_walks(session.state, sys_)
        log_stable(session.state)
        before = full_tables(session.state)
        befores.append(before)
        result = cli.run_reanalysis(session, text, filename, opts)
        session = result.session
        assert logged_differences(session.state) == differences(before, session.state), \
            f"step {step}"
        assert solver_section(starts[-1], session.state) == \
            full_section(before, session.state), f"step {step}"
        sys_, reuse, unlogged = decided[-1]
        reach, walked = walks[-1].reach, walks[-1].walked
        reusable = reuse.reusable
        assert unlogged == set() and reusable <= reuse.untouched, f"step {step}"
        reached_rhs = {u for u in reach.succ if sys_.has_rhs(u)}
        assert reach.leaves == reach.succ.keys() - reached_rhs, f"step {step}"
        assert reach.unstable == {u for u in reach.succ if u not in session.state.stable}, \
            f"step {step}"
        assert sorted(result.post_stats["evaluated"], key=sort_key) == \
            sorted(reached_rhs - reusable, key=sort_key), f"step {step}"
        reference, ref_stats, ref_reached = _reference_reanalysis(reference, text, filename, opts)
        st, ref = session.state, reference.state
        assert reach.succ.keys() == ref_reached.keys(), f"step {step}"
        assert {u for u, out in reach.succ.items() if set(out) != ref_reached[u]} == set(), \
            f"step {step}"
        assert st.sigma == ref.sigma, f"step {step}"
        for name in ("infl", "side_dep", "side_infl"):
            assert _ordered(getattr(st, name)) == _ordered(getattr(ref, name)), f"step {step}"
        assert inexact_infl(sys_, st, reach.succ) == {}, f"step {step}"
        assert (st.stable, st.point) == (ref.stable, ref.point), f"step {step}"
        assert (session.store.warnings, session.store.accesses) == \
            (reference.store.warnings, reference.store.accesses), f"step {step}"
        for kind in ("reevaluated", "reused"):
            assert sorted(result.post_stats[kind], key=sort_key) == \
                sorted(ref_stats[kind], key=sort_key), f"step {step}"
        # the reanalyses reuse, unless the global declarations changed: they
        # evaluate fewer rhs than the full walk
        if step and "__init" not in result.changes["changed"]:
            assert len(result.post_stats["evaluated"]) < \
                len(ref_stats["reevaluated"]) + len(ref_stats["reused"]), f"step {step}"
            assert not (serve and walks_less) or len(walked) < len(ref_reached), f"step {step}"


def _assert_the_reach_is_the_full_walks(st, sys_):
    """`Reach.of` `st`, which `sys_` was solved and walked for, finds what
    the full walk reaches, with the same successors, leaves and unstable
    unknowns."""
    reach = Reach.of(st, sys_.query).find_leaves(sys_)
    probe = copy.copy(st)
    probe.infl = {y: dict(row) for y, row in st.infl.items()}  # the full walk drops edges
    reached = full_reachable_set(sys_, probe)
    assert reach.succ.keys() == reached.keys()
    assert {u for u, out in reach.succ.items() if set(out) != reached[u]} == set()
    assert reach.leaves == {u for u in reached if not sys_.has_rhs(u)}
    assert reach.unstable == {u for u in reached if u not in st.stable}


def _reloaded(session):
    """`session` as a bundle with its record would hold it."""
    out = cli.Session.empty()
    ((record, _, _),) = journal.records(persisted(session))
    journal.replay(out, record)
    return out


MODES = [pytest.param(cli.Options(mode=mode, restart=restart, wpoint_restart=wpoint_restart),
                      id=f"{mode}-{restart}{'-wpoint' if wpoint_restart else ''}")
         for mode in ("plain", "reluctant") for restart in ("off", "minimal")
         for wpoint_restart in (False, True)]


def _corpus_versions():
    spec = CorpusSpec(n_functions=40, seed=7)
    versions = [corpus_source(s) for s in [spec, *edit_sequence(spec, 10, seed=3)]]
    return versions + ["int gnew = 0;\n" + versions[-1], versions[-1]]  # a new global and back


@pytest.mark.parametrize("wpoint_restart", [False, True])
@pytest.mark.parametrize("restart", ["off", "minimal"])
@pytest.mark.parametrize("mode", ["plain", "reluctant"])
def test_the_walk_reuses_exactly_what_the_full_walk_would_find(monkeypatch, mode, restart,
                                                               wpoint_restart):
    opts = cli.Options(mode=mode, restart=restart, wpoint_restart=wpoint_restart)
    _assert_same_as_the_full_walk(_corpus_versions(), opts, monkeypatch, walks_less=True)


@pytest.mark.parametrize("opts", MODES)
def test_the_walk_of_a_loaded_session_reuses_what_the_full_walk_would_find(monkeypatch, opts):
    _assert_same_as_the_full_walk(_corpus_versions(), opts, monkeypatch, serve=False)


# `h`'s loop node first calls `f` in the context x ↦ {0}, then in a wider one:
# the solver keeps its infl edge from the first evaluation, the walk drops
# it, and only `main`'s call keeps that context reachable.
STALE_EDGE = """int f(int x){a = x + 1; return a;}
int h(){k = 0; while (k < 3) {r = f(k); k = k + 1;} return 0;}
int main(){%sr = h(); return 0;}
"""


def test_a_stale_infl_edge_does_not_keep_an_unknown_reachable():
    with_call, without = STALE_EDGE % "s = f(0); ", STALE_EDGE % ""
    infl = cli.run_analysis(with_call, "prog.mc", cli.Options()).session.state.infl

    def f_ret(*x):
        return NodeCtx("f", 2, Context.of({"x": ValueSet.of(x)}))

    # h's loop node reads f's return only in the wider context
    assert list(infl[f_ret(0)]) == [NodeCtx("main", 12, Context.EMPTY)]
    assert NodeCtx("h", 7, Context.EMPTY) in infl[f_ret(0, 1, 2)]
    for opts in (mode.values[0] for mode in MODES):
        for serve in (True, False):
            with pytest.MonkeyPatch.context() as monkeypatch:
                _assert_same_as_the_full_walk([with_call, without, with_call], opts,
                                              monkeypatch, serve)


# In the context x ↦ {1}, the node after `g == 5` is stable at Bot, so it has
# no σ entry, yet its rhs read `g`.  The edit makes that context unreachable.
BOT_PRODUCER = """int g = 0;
int f(int x){ t = g; if (g == 5) { t = 1; } return 0; }
int main(){ %s return 0; }
"""


@pytest.mark.parametrize("mode", ["plain", "reluctant"])
def test_records_of_a_bot_unknown_leave_with_its_context(monkeypatch, mode):
    versions = [BOT_PRODUCER % "a = f(1);", BOT_PRODUCER % "g = 1; a = f(2);"]
    _assert_same_as_the_full_walk(versions, cli.Options(mode=mode), monkeypatch)


# A context that an edit leaves, and comes back to: `f(1)` has dead code
# that `f(2)` does not, and `k`, which calls f, is unchanged.
CONTEXT_LEAVES = """int f(int x) { a = x; if (x < 2) { a = 0; } return a; }
int k(int y) { r = f(y); return r; }
int main() { s = k(%d); return 0; }
"""

# `even` and `odd` call each other in one context, and `h`'s loop is a cycle
# of its own: once main no longer calls into them, each cycle has lost its
# only entry edge, although every unknown on it still has a predecessor.
CYCLES = """int even(int n) { if (n > 5) { r = odd(n); } return 1; }
int odd(int n) { if (n > 5) { r = even(n); } return 0; }
int h(int n) { k = 0; while (k < n) { k = k + 1; } return k; }
int main() { a = even(%d); %s return 0; }
"""

# A race on g, whose accesses lie in w, h and main, and dead code in h;
# lines added to f move every function below it.
MOVES = """int g = 0;
mutex m;
int f(int p) {
  a = p + 1;%s
  return a;
}
int h(int y) {
  if (y > 5) {
    z = 1;
  }
  g = y;
  return 0;
}
void* w(void* q) { lock(m); *q = 1; unlock(m); return NULL; }
int main() { create(w, &g); r = f(1); s = h(2); return g; }
"""
SMALL_EDITS = {
    "a-context-leaves": [CONTEXT_LEAVES % 1, CONTEXT_LEAVES % 2, CONTEXT_LEAVES % 1],
    "a-cycle-loses-its-entry": [CYCLES % (7, "b = h(3);"), CYCLES % (1, ""),
                                CYCLES % (7, "b = h(3);")],
    "another-path": [MOVES % "", (MOVES % "\n  b = a;", "other.mc"), MOVES % ""],
    "lines-move": [MOVES % "", MOVES % "\n  b = a;\n  c = b;", MOVES % "\n  b = a;"],
    "a-declaration-edit": [MOVES % "", "int gnew = 3;\n" + MOVES % "", MOVES % ""],
}


@pytest.mark.parametrize("serve", [True, False], ids=["serve", "cli"])
@pytest.mark.parametrize("opts", MODES)
@pytest.mark.parametrize("edits", list(SMALL_EDITS))
def test_the_walk_follows_the_full_walk_on_small_edits(monkeypatch, edits, opts, serve):
    """Contexts and cycles that lose their entry leave, and every location
    of a file that moved or was renamed is refreshed."""
    _assert_same_as_the_full_walk(SMALL_EDITS[edits], opts, monkeypatch, serve)


def test_the_small_edits_have_warnings_that_move():
    """The warnings that `test_the_walk_follows_the_full_walk_on_small_edits`
    checks are there: dead code of a context that leaves, another branch in
    each context, and a race and dead code below lines that move."""
    opts = cli.Options()
    one, two = ([w.id for w in cli.run_analysis(CONTEXT_LEAVES % x, "prog.mc", opts)
                 .session.store.warnings if w.kind == "dead-code"] for x in (1, 2))
    assert len(one) == len(two) == 1 and one != two
    session = cli.run_analysis(MOVES % "", "prog.mc", opts).session
    assert sorted(w.kind for w in session.store.warnings) == ["dead-code", "race"]
    moved = cli.run_reanalysis(session, MOVES % "\n  b = a;", "prog.mc", opts).session
    assert [w.locations for w in moved.store.warnings] == \
        [tuple((f, line + 1, c) for f, line, c in w.locations) for w in session.store.warnings]


def _random_accesses(rng, n):
    locksets = [Lockset.top(), Lockset.bot(), Lockset.of(["m"]), Lockset.of(["n"]),
                Lockset.of(["m", "n"])]
    return frozenset(Access(rng.choice(["read", "write"]), rng.choice(locksets),
                            rng.choice(["f", "h"]), rng.randrange(8), rng.randrange(8))
                     for _ in range(n))


def test_races_find_what_comparing_every_pair_finds():
    rng = random.Random(17)
    for trial in range(300):
        store = WarnStore()
        for p in range(rng.randrange(1, 5)):
            store.accesses[f"p{p}"] = {g: _random_accesses(rng, rng.randrange(1, 7))
                                       for g in rng.sample(["G", "H", "K"], rng.randrange(1, 4))}
        assert races(store, _NoCfg(), "<t>") == pairwise_races(store, _NoCfg(), "<t>"), trial


def test_races_on_one_hot_global_find_what_comparing_every_pair_finds():
    rng = random.Random(5)
    store = WarnStore()
    for p in range(80):
        store.accesses[f"p{p}"] = {"G": _random_accesses(rng, 12)}
    assert len(set().union(*(rows["G"] for rows in store.accesses.values()))) >= 500
    (race,) = races(store, _NoCfg(), "<t>")
    assert [race] == pairwise_races(store, _NoCfg(), "<t>")


# Edits at the edge of the edited function: a new local in a `main` that
# never returns, which `main` binds on the edges out of its entry (the
# harness side-effects only `ret` there), and a new global declaration that
# turns `t` in the unchanged `f` into a global.
REWRITTEN = [
    ("int g = 0;\nint main() { while (1) { y = 1; } return 0; }\n",
     "int g = 0;\nint main() { while (1) { y = 1; g = z; z = 2; } return 0; }\n"),
    ("int g = 0;\nint f(int x) { t = x; g = t; return 0; }\nint main() { a = f(1); return 0; }\n",
     "int g = 0;\nint t = 5;\nint f(int x) { t = x; g = t; return 0; }\n"
     "int main() { a = f(1); return 0; }\n"),
]


@pytest.mark.parametrize("old, new, mode", [
    pytest.param(old, new, mode, id=name if mode == "reluctant" else f"{name}-{mode}")
    for name, (old, new) in zip(["main-gains-a-local", "a-local-turns-global"], REWRITTEN)
    for mode in ("reluctant", "plain")])
def test_a_rhs_rewritten_outside_the_edited_function_is_checked(old, new, mode):
    """The new local of a main that never returns, and every right-hand
    side of a function that names a new global, are solved again: the
    reanalysis verifies and equals a from-scratch run."""
    opts = cli.Options(mode=mode)
    session = cli.run_analysis(old, "prog.mc", opts).session
    session = cli.run_reanalysis(session, new, "prog.mc", opts).session
    report = cli.compare_report(session, new, opts)
    assert report["finer"] == report["incomparable"] == 0
    assert report["equal"] == report["total"] > 0


def test_warnstore_json_roundtrip():
    built, st, store, _ = full_pipeline(FIG2)
    session = cli.Session(parse(FIG2).digests, built.assignment, st, store)
    framed, _ = journal.record(journal.EMPTY, session, "", "")
    again = cli.Session.empty()
    journal.replay(again, json.loads(framed.split(b" ", 1)[1]))
    assert (again.store.warnings, again.store.accesses) == (store.warnings, store.accesses)
    payload = store.warnings_json()
    assert all(set(w) == {"id", "kind", "message", "locations", "provenance"}
               for w in payload)


# -- warning identity and diffs ----------------------------------------------------------


def test_warning_id_is_location_independent():
    w1 = make_warning("race", "race:g", "msg", ["prov"], [("a.c", 3, 1)])
    w2 = make_warning("race", "race:g", "msg", ["prov"], [("a.c", 99, 7)])
    assert w1.id == w2.id


def test_pure_code_move_keeps_warning_id_with_new_locations():
    built, st, store0, _ = full_pipeline(FIG2)
    moved = "// a new comment line\n\n" + FIG2
    new_built, store1, stats = incremental_pipeline(FIG2, moved, store0, built, st)
    diff = diff_warnings(store0, store1)
    assert diff["added"] == [] and diff["removed"] == []
    (race0,) = [w for w in store0.warnings if w.kind == "race"]
    (race1,) = [w for w in store1.warnings if w.kind == "race"]
    assert race0.id == race1.id
    assert race1.locations != race0.locations  # shifted by two lines
    assert {l[1] - 2 for l in race1.locations} == {l[1] for l in race0.locations}


def test_diff_warnings_identity():
    _, _, store, _ = full_pipeline(FIG2)
    d = diff_warnings(store, store)
    assert d["added"] == [] and d["removed"] == []
    assert [w.id for w in d["kept"]] == [w.id for w in store.warnings]


def test_incremental_warnings_match_from_scratch_when_sigma_agrees():
    # with minimal restarting the Fig-2 edit converges to the from-scratch σ,
    # so the incrementally maintained store must coincide with a fresh one
    built, st, store0, _ = full_pipeline(FIG2)
    new_built, store_inc, _ = incremental_pipeline(FIG2, FIG2_EDIT, store0, built, st,
                                                   restart="minimal")
    _, _, store_scratch, _ = full_pipeline(FIG2_EDIT, assignment=new_built.assignment)
    assert {(w.id, w.message) for w in store_inc.warnings} == \
           {(w.id, w.message) for w in store_scratch.warnings}


CALLS_F1 = """int g = 0;
int f(int x) { if (x == 1) { g = 1; } return 0; }
int main() { y = f(1); return 0; }
"""


def test_contexts_an_edit_made_unreachable_give_no_warnings():
    # after f(1) becomes f(2), f's context x = 1 is unreachable; its σ
    # entries must not keep the then-branch alive
    edited = CALLS_F1.replace("f(1)", "f(2)")
    built, st, store0, _ = full_pipeline(CALLS_F1)
    new_built, store_inc, _ = incremental_pipeline(CALLS_F1, edited, store0, built, st)
    _, _, store_scratch, _ = full_pipeline(edited, assignment=new_built.assignment)
    assert [w.message for w in store_scratch.warnings] == ["unreachable code in 'f'"]
    assert store_inc.warnings_json() == store_scratch.warnings_json()


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


def test_fixing_a_race_removes_it_and_purges_stale_accesses():
    built, st, store0, _ = full_pipeline(RACY)
    race_ids = [w.id for w in store0.warnings if w.kind == "race"]
    assert len(race_ids) == 1
    new_built, store1, _ = incremental_pipeline(RACY, FIXED, store0, built, st)
    diff = diff_warnings(store0, store1)
    assert race_ids[0] in [w.id for w in diff["removed"]]
    assert not [w for w in store1.warnings if w.kind == "race"]
    # WO1 trace-back: the unlocked write of the old version is gone
    for rec in [r for rows in store1.accesses.values() for r in rows.get("shared", ())]:
        if rec.kind == "write":
            assert not rec.locks.disjoint(Lockset.of(["m"]))


# -- derived warnings -----------------------------------------------------------------


def test_dead_code_region_is_reported_once():
    built, st, store, _ = full_pipeline("""
int g = 0;
int main() {
  x = 1;
  if (x > 5) {
    g = 1;
    g = 2;
  }
  return x;
}
""")
    dead = [w for w in store.warnings if w.kind == "dead-code"]
    assert len(dead) == 1
    assert "'main'" in dead[0].message


def test_no_dead_code_in_fully_live_program():
    _, _, store, _ = full_pipeline(FIG2)
    assert [w for w in store.warnings if w.kind == "dead-code"] == []


def test_unsound_store_is_flagged():
    built, st, store, _ = full_pipeline("""
int g = 0;
void* launder(void* q) { return ret; }
int main() {
  p = launder(0);
  *p = 1;
  return g;
}
""")
    (w,) = [w for w in store.warnings if w.kind == "unsound-store"]
    assert "'p'" in w.message


def test_a_store_through_ret_at_the_entry_is_flagged():
    # the start state binds `ret` to the unknown pointer a `void*` header declares
    _, _, store, _ = full_pipeline("""
int g = 0;
void* w(void* p) { *ret = 1; return NULL; }
int main() { create(w, &g); return g; }
""")
    (w,) = [w for w in store.warnings if w.kind == "unsound-store"]
    assert "'ret'" in w.message
    assert w.provenance  # anchored at the offending program point
