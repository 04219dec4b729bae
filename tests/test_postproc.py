import json

import pytest

from minicheck import cli, postproc
from minicheck.consys import Context
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import Access, AddressSet, Lockset
from minicheck.increment import (
    detect_changes,
    prepare_reluctant,
    reanalyze,
    relabel_nodes,
)
from minicheck.minic import build_system, parse
from minicheck.postproc import (
    WarnStore,
    diff_warnings,
    make_warning,
    postprocess,
    races,
)
from minicheck.tdsolver import run


from support import FIG2, FIG2_EDIT, analyze_source, full_postprocess

BETA0 = Context.of({"p": AddressSet.of(["g"])})


def full_pipeline(text, domain="valueset"):
    built, st, _ = analyze_source(text, domain=domain)
    store, stats = postprocess(built, st, WarnStore(), "<test>")
    return built, st, store, stats


def incremental_pipeline(old_text, new_text, prev_store, built_old, st,
                         restart="minimal"):
    _, new_built, _, start = reanalyze(parse(old_text).digests, built_old.assignment, st,
                                       parse(new_text), restart=restart)
    store, stats = postprocess(new_built, st, prev_store, "<test>", start)
    return new_built, store, stats


# -- the race rule ------------------------------------------------------------------


def _mini_store(records):
    store = WarnStore()
    store.accesses["G"] = {"p": frozenset(records)}
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
    built, st, _ = analyze_source(FIG2)
    store0, _ = postprocess(built, st, WarnStore(), "<test>")
    new_built, store1, stats = incremental_pipeline(FIG2, FIG2_EDIT, store0, built, st,
                                                    restart="off")
    ever = {json.loads(k).get("fn") for k in stats["reevaluated"]}
    node_keys = [json.loads(k) for k in stats["reevaluated"] if json.loads(k)["k"] == "node"]
    assert {(d["fn"], d["id"]) for d in node_keys} == {("foo", 6), ("foo", 2), ("main", 5)}
    assert len(stats["reused"]) >= 4


def test_two_postprocesses_without_edit_are_byte_identical():
    built, st, _ = analyze_source(FIG2)
    store0, _ = postprocess(built, st, WarnStore(), "<test>")
    # an incremental no-op run: everything stays superstable
    new_built, store1, stats = incremental_pipeline(FIG2, FIG2, store0, built, st)
    assert stats["reevaluated"] == []
    assert json.dumps(store0.to_json()) == json.dumps(store1.to_json())


def test_postprocess_never_changes_sigma():
    built, st, _ = analyze_source(FIG2)
    before = dict(st.sigma)
    postprocess(built, st, WarnStore(), "<test>")
    # prune may drop entries, but no value may change
    for u, v in st.sigma.items():
        assert before[u] == v


# -- the incremental walk and pruning against the full ones ----------------------------


def _reference_reanalysis(session, text, opts):
    """The pipeline with the full walk, pruning and postprocessing."""
    prog = parse(text)
    _, built, _, _ = reanalyze(session.digests, session.assignment, session.state, prog,
                               opts.mode, opts.restart, opts.domain,
                               restart_wpoint=opts.wpoint_restart)
    store, stats, reached = full_postprocess(built, session.state, session.store, "prog.mc")
    return cli.Session(prog.digests, built.assignment, session.state, store), stats, reached


def _ordered(m):
    return [(u, list(members)) for u, members in m.items()]


def _assert_same_as_the_full_walk(versions, opts, monkeypatch):
    """Run `versions` through the pipeline and through the reference side by
    side; after every step both leave the same state, store and counts."""
    walks = []
    walk = postproc.reachable_set
    monkeypatch.setattr(postproc, "reachable_set",
                        lambda *a, **k: walks.append(walk(*a, **k)) or walks[-1])
    session, reference = cli.Session.empty(), cli.Session.empty()
    for step, text in enumerate(versions):
        result = cli.run_reanalysis(session, text, "prog.mc", opts)
        session = result.session
        reference, ref_stats, ref_reached = _reference_reanalysis(reference, text, opts)
        st, ref = session.state, reference.state
        assert walks[-1] == ref_reached, f"step {step}"
        assert st.sigma == ref.sigma, f"step {step}"
        for name in ("infl", "side_dep", "side_infl"):
            assert _ordered(getattr(st, name)) == _ordered(getattr(ref, name)), f"step {step}"
        assert (st.stable, st.point) == (ref.stable, ref.point), f"step {step}"
        assert session.store.to_json() == reference.store.to_json(), f"step {step}"
        assert [len(result.post_stats[k]) for k in ("reevaluated", "reused")] == \
            [len(ref_stats[k]) for k in ("reevaluated", "reused")], f"step {step}"
        # the reanalyses reuse: they evaluate fewer rhs than the full walk
        assert step == 0 or len(result.post_stats["evaluated"]) < \
            len(ref_stats["reevaluated"]) + len(ref_stats["reused"]), f"step {step}"


@pytest.mark.parametrize("wpoint_restart", [False, True])
@pytest.mark.parametrize("restart", ["off", "minimal"])
@pytest.mark.parametrize("mode", ["plain", "reluctant"])
def test_the_walk_reuses_exactly_what_the_full_walk_would_find(monkeypatch, mode, restart,
                                                               wpoint_restart):
    spec = CorpusSpec(n_functions=40, seed=7)
    versions = [corpus_source(s) for s in [spec, *edit_sequence(spec, 10, seed=3)]]
    opts = cli.Options(mode=mode, restart=restart, wpoint_restart=wpoint_restart)
    _assert_same_as_the_full_walk(versions, opts, monkeypatch)


# `h`'s loop node first calls `f` in the context x ↦ {0}, then in a wider one:
# its infl edge from the first evaluation stays, and only `main`'s call keeps
# that context reachable.
STALE_EDGE = """int f(int x){a = x + 1; return a;}
int h(){k = 0; while (k < 3) {r = f(k); k = k + 1;} return 0;}
int main(){%sr = h(); return 0;}
"""


def test_a_stale_infl_edge_does_not_keep_an_unknown_reachable(monkeypatch):
    with_call, without = STALE_EDGE % "s = f(0); ", STALE_EDGE % ""
    assert cli.run_analysis(with_call, "prog.mc", cli.Options()).session.state.stale
    _assert_same_as_the_full_walk([with_call, without, with_call], cli.Options(), monkeypatch)


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


# Edits that rewrite a rhs outside the edited function: a new local in a
# `main` that never returns changes the start state the harness side-effects
# to `main`'s entry, and a new global declaration turns `t` in the unchanged
# `f` into a global.
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
    """The harness's side-effect to the entry of a main that never returns,
    and every right-hand side of a function that names a new global, are
    solved again: the reanalysis verifies and equals a from-scratch run."""
    opts = cli.Options(mode=mode)
    session = cli.run_analysis(old, "prog.mc", opts).session
    session = cli.run_reanalysis(session, new, "prog.mc", opts).session
    report = cli.compare_report(session, new, opts)
    assert report["finer"] == report["incomparable"] == 0
    assert report["equal"] == report["total"] > 0


def test_warnstore_json_roundtrip():
    _, _, store, _ = full_pipeline(FIG2)
    doc = store.to_json()
    again = WarnStore.from_json(doc)
    assert again.to_json() == doc
    payload = store.warnings_json()
    assert all(set(w) == {"id", "kind", "message", "locations", "provenance"}
               for w in payload)


# -- warning identity and diffs ----------------------------------------------------------


def test_warning_id_is_location_independent():
    w1 = make_warning("race", "race:g", "msg", ["prov"], [("a.c", 3, 1)])
    w2 = make_warning("race", "race:g", "msg", ["prov"], [("a.c", 99, 7)])
    assert w1.id == w2.id


def test_pure_code_move_keeps_warning_id_with_new_locations():
    built, st, _ = analyze_source(FIG2)
    store0, _ = postprocess(built, st, WarnStore(), "<test>")
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
    built, st, _ = analyze_source(FIG2)
    store0, _ = postprocess(built, st, WarnStore(), "<test>")
    new_built, store_inc, _ = incremental_pipeline(FIG2, FIG2_EDIT, store0, built, st,
                                                   restart="minimal")
    from support import analyze_source as fresh
    built2, st2, _ = fresh(FIG2_EDIT, assignment=new_built.assignment)
    store_scratch, _ = postprocess(built2, st2, WarnStore(), "<test>")
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
    built2, st2, _ = analyze_source(edited, assignment=new_built.assignment)
    store_scratch, _ = postprocess(built2, st2, WarnStore(), "<test>")
    assert [w.message for w in store_scratch.warnings] == ["unreachable code in 'f'"]
    assert store_inc.warnings_json() == store_scratch.warnings_json()


def test_superstable_subset_of_stable_at_phase_boundaries():
    built, st, _ = analyze_source(FIG2)
    store0, _ = postprocess(built, st, WarnStore(), "<test>")
    changes = detect_changes(parse(FIG2).digests, parse(FIG2_EDIT))
    new_asg = relabel_nodes(changes, built.assignment, parse(FIG2_EDIT))
    new_built = build_system(parse(FIG2_EDIT), new_asg)
    A = prepare_reluctant(changes, st, built.assignment, new_built)
    assert st.superstable <= st.stable
    run(new_built.sys, st, pre_solve=A)
    assert st.superstable <= st.stable
    postprocess(new_built, st, store0, "<test>")
    assert st.superstable <= st.stable


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
    built, st, _ = analyze_source(RACY)
    store0, _ = postprocess(built, st, WarnStore(), "<test>")
    race_ids = [w.id for w in store0.warnings if w.kind == "race"]
    assert len(race_ids) == 1
    new_built, store1, _ = incremental_pipeline(RACY, FIXED, store0, built, st)
    diff = diff_warnings(store0, store1)
    assert race_ids[0] in [w.id for w in diff["removed"]]
    assert not [w for w in store1.warnings if w.kind == "race"]
    # WO1 trace-back: the unlocked write of the old version is gone
    for rec in store1.merged_accesses("shared"):
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
    assert w.provenance  # anchored at the offending program point
