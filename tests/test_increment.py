import copy
import json
import random

import pytest

from minicheck import cli, increment
from minicheck.consys import (
    INIT,
    MAIN,
    Ans,
    Context,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
    eval_tree,
    unknown_from_json,
)
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import AddressSet, ValueSet, leq
from minicheck.increment import (
    INIT_PSEUDO_FN,
    ChangeSet,
    Reach,
    confirm_restarts,
    decide_reuse,
    detect_changes,
    prepare_plain,
    prepare_reluctant,
    prune,
    reachable_set,
    reanalyze,
    recorded_contexts,
    relabel_nodes,
    restart_globals,
    select_restart_globals,
)
from minicheck.minic import build_system, parse
from minicheck.minic.syntax import Call, Create, If, While, normalize
from minicheck.tdsolver import SolverState, run, tables, verify_solution

from support import (
    FIG2,
    FIG2_EDIT,
    analyze_source,
    apply_section,
    assert_producers_are_the_last_evaluations,
    differences,
    eqsys_from_dict,
    fresh_assignment,
    full_prune,
    full_reachable_set,
    full_restart_globals,
    full_section,
    full_tables,
    inexact_infl,
    log_stable,
    logged_differences,
    producers,
    random_tree,
    side_maps_inverse,
    solver_section,
)

BETA0 = Context.of({"p": AddressSet.of(["g"])})
G = GlobalVar("g")


def vs(*xs):
    return ValueSet.of(xs)


def node(fn, i, ctx=Context.EMPTY):
    return NodeCtx(fn, i, ctx)


def node_stable(st):
    return {u for u in st.stable if isinstance(u, NodeCtx)}


def incremental_setup(old_text, new_text, mode="reluctant", restart="off",
                      restarter=restart_globals):
    """Analyze old_text, then prepare reanalysis of new_text: returns the
    state after preparation plus everything needed to run step 1/2.
    `restarter` restarts the globals `restart="minimal"` selects; what it
    returns is ignored."""
    built, st, _ = analyze_source(old_text)
    new_prog = parse(new_text)
    changes = detect_changes(parse(old_text).digests, new_prog)
    contexts = recorded_contexts(st, built.assignment)
    G_sel = select_restart_globals(changes, st, built.assignment, contexts) \
        if restart == "minimal" else []
    new_asg = relabel_nodes(changes, built.assignment, new_prog)
    new_built = build_system(new_prog, new_asg)
    prep = prepare_reluctant if mode == "reluctant" else prepare_plain
    A = prep(changes, st, built.assignment, contexts)
    restarter(G_sel, new_built.sys, st, A)
    return new_built, st, changes, A


# -- change detection ------------------------------------------------------------


def test_identical_programs_are_unchanged():
    c = detect_changes(parse(FIG2).digests, parse(FIG2))
    assert not c.changed and not c.header_changed and not c.added and not c.removed
    assert c.unchanged >= {"foo", "main"}


def test_fig2_edit_changes_only_foo():
    c = detect_changes(parse(FIG2).digests, parse(FIG2_EDIT))
    assert c.changed == {"foo"}
    assert c.unchanged >= {"main", "__init"}


def test_whitespace_and_comments_are_no_change():
    edited = FIG2.replace("*p = 1;", "  *p = 1;   // store\n")
    c = detect_changes(parse(FIG2).digests, parse(edited))
    assert not c.changed


def test_header_change_detected():
    new = FIG2.replace("void* foo(void* p)", "void* foo(void* p, int n)")
    new = new.replace("create(foo, &g);", "create(foo, &g);")  # create arity now wrong
    new = new.replace("void* foo(void* p, int n) {\n   *p = 1;", "void* foo(void* q) {\n   *q = 1;")
    c = detect_changes(parse(FIG2).digests, parse(new))
    assert "foo" in c.header_changed


def test_added_and_removed_functions():
    new = FIG2 + "\nint extra(int x) { return x; }\n"
    c = detect_changes(parse(FIG2).digests, parse(new))
    assert c.added == {"extra"}
    c2 = detect_changes(parse(new).digests, parse(FIG2))
    assert c2.removed == {"extra"}


def test_global_initializer_change_marks_init():
    new = FIG2.replace("atomic int g = 0 ;", "atomic int g = 5 ;")
    c = detect_changes(parse(FIG2).digests, parse(new))
    assert "__init" in c.changed


def test_a_function_that_names_a_redeclared_global_is_changed():
    """Adding `t` to the globals turns f's local `t` into a global, so f's
    right-hand sides change although its digests do not; h, which does
    not name `t`, stays unchanged.  Removing it again is symmetric."""
    old = ("int g = 0;\nint f(int x) { t = x; g = t; return 0; }\n"
           "int h(int x) { return x; }\nint main() { a = f(1); b = h(2); return 0; }\n")
    new = old.replace("int g = 0;\n", "int g = 0;\nint t = 5;\n")
    for before, after in ((old, new), (new, old)):
        c = detect_changes(parse(before).digests, parse(after))
        assert c.changed == {"f", "__init"}
        assert c.unchanged == {"h", "main"}


def _callees(block) -> set:
    """The functions that a body calls or creates."""
    out = set()
    for s in block.stmts:
        if isinstance(s, (Call, Create)):
            out.add(s.fn)
        elif isinstance(s, If):
            out |= _callees(s.then) | (_callees(s.orelse) if s.orelse else set())
        elif isinstance(s, While):
            out |= _callees(s.body)
    return out


def _structural_changes(old, new) -> ChangeSet:
    """Change detection on the ASTs of both versions, as it was before the
    old version was known by its digests alone.  A call site reads its
    callee's header, so a function that calls or creates a header-changed
    one is changed."""
    changed, header_changed, added, unchanged = set(), set(), set(), set()
    for name, fn in new.functions.items():
        if name not in old.functions:
            added.add(name)
        elif old.functions[name].header() != fn.header():
            header_changed.add(name)
        elif normalize(old.functions[name].body) == normalize(fn.body):
            unchanged.add(name)
        else:
            changed.add(name)
    for name in [n for n in unchanged if _callees(new.functions[n].body) & header_changed]:
        unchanged.remove(name)
        changed.add(name)
    removed = set(old.functions) - set(new.functions)
    (changed if old.init_signature() != new.init_signature() else unchanged).add(INIT_PSEUDO_FN)
    return ChangeSet(frozenset(changed), frozenset(header_changed), frozenset(added),
                     frozenset(removed), frozenset(unchanged))


def test_digest_change_detection_matches_the_structural_comparison():
    extra = FIG2 + "\nint extra(int x) { return x; }\n"
    pairs = [
        (FIG2, FIG2),
        (FIG2, FIG2_EDIT),
        (FIG2, FIG2.replace("*p = 1;", "  *p = 1;   // store\n")),
        (FIG2, FIG2.replace("void* foo(void* p) {\n   *p = 1;", "void* foo(void* q) {\n   *q = 1;")),
        (FIG2, extra),
        (extra, FIG2),
        (FIG2, FIG2.replace("atomic int g = 0 ;", "atomic int g = 5 ;")),
        (FIG2, FIG2.replace("atomic int g = 0 ;", "atomic int g ;")),
        ("int f(int x) { return x; }\nint main() { r = f(1); return r; }",
         "int f(int x, int y) { return x; }\nint main() { r = f(1, 2); return r; }"),
    ]
    pairs += [(tpl % 1, tpl % k) for tpl in SMALL_PROGRAMS for k in (1, 2)]
    spec = CorpusSpec(n_functions=30, seed=5)
    texts = [corpus_source(spec)] + [corpus_source(s) for s in edit_sequence(spec, 12, seed=11)]
    pairs += list(zip(texts, texts[1:]))
    seen = set()  # the kinds of change the pairs exercise
    for old_text, new_text in pairs:
        old, new = parse(old_text), parse(new_text)
        stored = json.loads(json.dumps(old.digests))  # as a state bundle keeps them
        changes = detect_changes(stored, new)
        assert changes == _structural_changes(old, new), (old_text, new_text)
        seen |= {kind for kind, fns in changes.to_json().items() if set(fns) - {INIT_PSEUDO_FN}}
        if INIT_PSEUDO_FN in changes.changed:
            seen.add("init")
    assert seen == {"changed", "header_changed", "added", "removed", "unchanged", "init"}


# -- relabeling --------------------------------------------------------------------


def test_fig2_edit_relabeling_gives_fresh_interior():
    c = detect_changes(parse(FIG2).digests, parse(FIG2_EDIT))
    old = fresh_assignment(parse(FIG2))
    new = relabel_nodes(c, old, parse(FIG2_EDIT))
    assert new.assign["foo"] == (0, 6, 2)
    assert new.assign["main"] == (3, 4, 5)
    assert new.counter == 7


def test_unchanged_function_keeps_identity_assignment():
    c = detect_changes(parse(FIG2).digests, parse(FIG2))
    old = fresh_assignment(parse(FIG2))
    new = relabel_nodes(c, old, parse(FIG2))
    assert new.assign == old.assign


def test_added_function_gets_fresh_nodes():
    new_text = FIG2 + "\nint extra(int x) { y = x; return y; }\n"
    c = detect_changes(parse(FIG2).digests, parse(new_text))
    old = fresh_assignment(parse(FIG2))
    new = relabel_nodes(c, old, parse(new_text))
    assert min(new.assign["extra"]) >= 6


# -- plain and reluctant preparation -------------------------------------------------


def test_prepare_plain_matches_fig3_stable_set():
    new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT, mode="plain")
    assert A == []
    assert node_stable(st) == {node("foo", 0, BETA0), node("main", 3)}
    assert G in st.stable and INIT in st.stable
    assert MAIN not in st.stable


def test_prepare_plain_on_empty_changeset_is_noop():
    built, st, _ = analyze_source(FIG2)
    stable_before = set(st.stable)
    changes = detect_changes(parse(FIG2).digests, parse(FIG2))
    prepare_plain(changes, st, built.assignment, recorded_contexts(st, built.assignment))
    assert st.stable == stable_before


def test_removed_global_initializer_destabilizes_feeder():
    # dropping g's initializer edits init; its reader chain destabilizes
    new_text = FIG2.replace("atomic int g = 0 ;", "atomic int g ;")
    new_built, st, changes, A = incremental_setup(FIG2, new_text, mode="plain")
    assert "__init" in changes.changed
    assert INIT not in st.stable
    # g itself keeps its value until restarted; its reader was untouched
    assert G in st.stable


def test_prepare_reluctant_matches_fig4():
    new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT)
    assert A == [node("foo", 2, BETA0)]
    assert node_stable(st) == {node("foo", 0, BETA0), node("main", 3),
                               node("main", 4), node("main", 5)}
    assert G in st.stable and MAIN in st.stable


def test_reluctant_step1_matches_fig5_and_step2_is_single_lookup():
    new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT)
    stats = run(new_built.sys, st, pre_solve=A)
    assert st.sigma[G] == vs(0, 1, 2)
    assert st.sigma[node("main", 5)].env.get("ret") == vs(0, 1, 2)
    assert verify_solution(new_built.sys, st) == []
    # step 2 re-evaluated the endpoint of main exactly once
    assert stats["step2_evals_by_unknown"].get(node("main", 5)) == 1


def test_function_with_two_contexts_contributes_both_return_unknowns():
    old = """
int g = 0;
int f(int x) { return x + 1; }
int main() { a = f(1); b = f(2); return a + b; }
"""
    new = old.replace("x + 1", "x + 3")
    built, st, _ = analyze_source(old)
    changes = detect_changes(parse(old).digests, parse(new))
    new_asg = relabel_nodes(changes, built.assignment, parse(new))
    new_built = build_system(parse(new), new_asg)
    A = prepare_reluctant(changes, st, built.assignment, recorded_contexts(st, built.assignment))
    ret = built.assignment.assign["f"][-1]
    assert len(A) == 2
    assert {u.node for u in A} == {ret}
    assert {u.ctx for u in A} == {Context.of({"x": vs(1)}), Context.of({"x": vs(2)})}
    run(new_built.sys, st, pre_solve=A)
    assert verify_solution(new_built.sys, st) == []


def test_header_changed_functions_are_prepared_plainly():
    old = """
int g = 0;
int f(int x) { return x; }
int main() { r = f(1); return r; }
"""
    new = """
int g = 0;
int f(int x, int y) { return x; }
int main() { r = f(1, 2); return r; }
"""
    built, st, _ = analyze_source(old)
    changes = detect_changes(parse(old).digests, parse(new))
    assert "f" in changes.header_changed and "main" in changes.changed
    new_asg = relabel_nodes(changes, built.assignment, parse(new))
    new_built = build_system(parse(new), new_asg)
    A = prepare_reluctant(changes, st, built.assignment, recorded_contexts(st, built.assignment))
    # f is excluded from A; only main's return unknown is re-solved reluctantly
    assert all(u.fn == "main" for u in A)
    stats = run(new_built.sys, st, pre_solve=A)
    assert verify_solution(new_built.sys, st) == []


# -- a call site reads only its callee's header ----------------------------------------


def _entry_names(session):
    """(function, names σ binds at its entry) for every context, plus what
    the header declares: its parameters and ``ret``."""
    for u, s in session.state.sigma.items():
        ids = session.assignment.assign.get(getattr(u, "fn", None))
        if isinstance(u, NodeCtx) and ids and u.node == ids[0] and not s.is_bot():
            fn = session.program.functions[u.fn]
            yield u.fn, set(s.env.as_dict()), {p.name for p in fn.params} | {"ret"}


def test_entry_states_bind_only_the_header():
    spec = CorpusSpec(n_functions=40, seed=7)
    versions = [corpus_source(s) for s in [spec, *edit_sequence(spec, 10, seed=3)]]
    session = cli.Session.empty()
    for step, text in enumerate(versions):
        session = cli.run_reanalysis(session, text, "prog.mc", cli.Options()).session
        entries = list(_entry_names(session))
        assert len({fn for fn, _, _ in entries}) == 41, f"step {step}"
        for fn, bound, header in entries:
            assert bound == header, f"step {step}: {fn}"


@pytest.mark.parametrize("edit", ["sum", "extra:3"])
@pytest.mark.parametrize("idx", [5, 11, 20])
def test_a_body_edit_evaluates_only_the_edited_function(edit, idx):
    """f005 loops; none of the three writes a global, so nothing restarts."""
    spec = CorpusSpec(n_functions=40, seed=7)
    opts = cli.Options()
    session = cli.run_analysis(corpus_source(spec), "prog.mc", opts).session
    result = cli.run_reanalysis(session, corpus_source(spec.with_variant(idx, edit)),
                                "prog.mc", opts)
    evaluated = result.post_stats["evaluated"]
    assert evaluated and {u.fn for u in evaluated} == {f"f{idx:03d}"}


RETURNS_INT = "int f(int x) { y = x; return y; }\nint main() { %s return 0; }\n"
RETURNS_POINTER = "void* f(int x) { y = x; return NULL; }\nint main() { %s return 0; }\n"


@pytest.mark.parametrize("site", ["a = f(1);", "create(f, 1);"])
@pytest.mark.parametrize("mode", ["plain", "reluctant"])
def test_a_return_type_change_is_reanalyzed(mode, site):
    """The callers of a header-changed function are changed, and its nodes
    are new: no old value of another type meets a new one."""
    opts = cli.Options(mode=mode)
    old, new = RETURNS_INT % site, RETURNS_POINTER % site
    session = cli.run_analysis(old, "prog.mc", opts).session
    for text in (new, old):
        result = cli.run_reanalysis(session, text, "prog.mc", opts)
        assert result.changes["header_changed"] == ["f"]
        assert result.changes["changed"] == ["main"]
        session = result.session
        report = cli.compare_report(session, text, opts)
        assert report["finer"] == report["incomparable"] == 0
        assert report["equal"] == report["total"] > 0


def test_reluctant_work_never_exceeds_plain():
    evals = {}
    for mode in ("plain", "reluctant"):
        new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT, mode=mode)
        stats = run(new_built.sys, st, pre_solve=A)
        evals[mode] = stats["step1_rhs_evals"] + stats["step2_rhs_evals"]
    assert evals["reluctant"] <= evals["plain"]


# -- restarting ------------------------------------------------------------------------


def test_select_restart_globals_fig2_edit():
    built, st, _ = analyze_source(FIG2)
    changes = detect_changes(parse(FIG2).digests, parse(FIG2_EDIT))
    assert select_restart_globals(changes, st, built.assignment,
                                  recorded_contexts(st, built.assignment)) == \
        {G: {node("foo", 1, BETA0)}}


def test_select_restart_globals_pure_function_edit():
    src = """
int g = 0;
int f(int x) { return x + 1; }
int main() { r = f(1); return r + g; }
"""
    edited = src.replace("x + 1", "x + 2")
    built, st, _ = analyze_source(src)
    changes = detect_changes(parse(src).digests, parse(edited))
    assert select_restart_globals(changes, st, built.assignment,
                                  recorded_contexts(st, built.assignment)) == {}


def test_select_restart_globals_init_edit():
    built, st, _ = analyze_source(FIG2)
    new_text = FIG2.replace("atomic int g = 0 ;", "atomic int g = 9 ;")
    changes = detect_changes(parse(FIG2).digests, parse(new_text))
    assert select_restart_globals(changes, st, built.assignment,
                                  recorded_contexts(st, built.assignment)) == {G: {INIT}}


def test_restart_matches_fig6_and_recovers_precision():
    # restarting in full, as in Fig. 6: only the entry nodes stay stable; g is reset
    new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT, restart="minimal",
                                                  restarter=full_restart_globals)
    assert node_stable(st) == {node("foo", 0, BETA0), node("main", 3)}
    assert G not in st.sigma and G not in st.stable
    run(new_built.sys, st, pre_solve=A)
    full = dict(st.sigma)
    # from the contributions: foo's old one is dropped, init's {0} is g's
    # value, and only g's reader ⟨5,∅⟩ and what it influences leave stable
    kept = []
    new_built, st, changes, A = incremental_setup(
        FIG2, FIG2_EDIT, restart="minimal",
        restarter=lambda *args: kept.append(restart_globals(*args)))
    assert kept == [{G: [(INIT, vs(0))]}]
    assert producers(st)[G] == [INIT]
    assert st.sigma[G] == vs(0) and G in st.stable
    assert node_stable(st) == {node("foo", 0, BETA0), node("main", 3), node("main", 4)}
    run(new_built.sys, st, pre_solve=A)
    assert st.sigma == full
    assert st.sigma[G] == vs(0, 2)
    assert st.sigma[node("main", 5)].env.get("ret") == vs(0, 2)
    assert verify_solution(new_built.sys, st) == []
    assert side_maps_inverse(st)


def test_restart_globals_empty_is_noop():
    built, st, _ = analyze_source(FIG2)
    sigma_before = dict(st.sigma)
    assert restart_globals({}, built.sys, st) == {}
    assert st.sigma == sigma_before


@pytest.mark.parametrize("kept,reads,unconfirmed", [
    (vs(0), {INIT: ()}, []),
    (vs(9), {INIT: ()}, [G]),  # the run evaluated init, which contributes {0} now
    (vs(9), {}, []),  # stable and not evaluated: its contribution is taken as kept
], ids=["evaluated-same", "evaluated-other", "not-evaluated"])
def test_a_kept_producer_that_a_run_evaluated_is_evaluated_again(kept, reads, unconfirmed):
    built, st, _ = analyze_source(FIG2)
    assert confirm_restarts({G: [(INIT, kept)]}, built.sys, st, built.assignment,
                            reads) == unconfirmed


# Programs where a producer's recorded contribution to g may carry g's old
# value.  COUNTER: a thread whose contribution depends on g itself (with
# g = g * 1 it is g's whole old value).  HELPER: w's contribution is what h
# returns, so an edit of h, which writes g too, makes it stale; plain
# destabilization leaves w's store unstable, and in reluctant mode the
# return of h, which step 1 re-solves, influences it through infl.
COUNTER = """int g = 0;
mutex m;
void* t(void* p) { lock(m); g = %s; unlock(m); return NULL; }
int w(int x) { lock(m); g = 5; unlock(m); return x; }
int main() { create(t, 0); r = w(1); return g; }
"""
HELPER = """int g = 0;
int h(int x) { g = 1; return x + 1; }
int w(int x) { r = h(x); g = r; return r; }
int main() { a = w(1); return g; }
"""


def reanalyze_both_ways(old, new, mode, monkeypatch):
    """Reanalyze `new` after `old`, restarting from the contributions and in
    full: σ of both, each verified, and the globals the first way reset."""
    resets = []
    reset = increment._reset
    monkeypatch.setattr(increment, "_reset", lambda g, st: (resets.append(g), reset(g, st)))
    sigmas = []
    for restarter in (restart_globals, full_restart_globals):
        monkeypatch.setattr(increment, "restart_globals", restarter)
        built, st, _ = analyze_source(old)
        _, new_built, stats, _ = reanalyze(parse(old).digests, built.assignment, st,
                                           parse(new), mode,
                                           contexts=recorded_contexts(st, built.assignment))
        assert '{"k":"global","name":"g"}' in stats["restarted"]
        assert verify_solution(new_built.sys, st) == []
        if restarter is restart_globals:
            ours = list(resets)
        sigmas.append(st.sigma)
    return sigmas, ours


@pytest.mark.parametrize("old,edit,mode,expected", [
    (COUNTER % "g + 1", ("g = 5;", "g = 7;"), "reluctant", None),
    (COUNTER % "g * 1", ("g = 5;", "g = 7;"), "reluctant", vs(0, 7)),
    (HELPER, ("x + 1", "x + 2"), "plain", vs(0, 1, 3)),
    (HELPER, ("x + 1", "x + 2"), "reluctant", vs(0, 1, 3)),
], ids=["counter-add", "counter-copy", "helper-plain", "helper-reluctant"])
def test_a_contribution_that_may_carry_the_old_value_takes_the_full_restart(
        old, edit, mode, expected, monkeypatch):
    sigmas, resets = reanalyze_both_ways(old, old.replace(*edit), mode, monkeypatch)
    assert resets == [G]  # the contributions were not trusted
    assert sigmas[0] == sigmas[1]
    if expected is not None:
        assert sigmas[0][G] == expected


# Programs where an edit leaves a writer's context unreached, so a full
# reset drops its contribution: f⟨x=1⟩ (CALLER; H_CALLER through its callee
# h⟨y=1⟩) once main calls f(2), and f⟨x={0,1}⟩ (VALUE) once the value of k
# that main passes changes.  The restart keeps the contribution, and the run
# shows that nothing enters the context any more.
CALLER = """int g = 0;
int f(int x) { g = x; return x; }
int main() { g = 5; r = f(1); return r; }
"""
H_CALLER = """int g = 0;
int h(int y) { g = y; return y; }
int f(int x) { r = h(x); return r; }
int main() { g = 5; r = f(1); return r; }
"""
VALUE = """int g = 0;
int k = 0;
int f(int x) { g = x; return x; }
int w(int y) { k = 1; g = 7; return y; }
int main() { g = 5; a = w(0); r = f(k); return r; }
"""
# A kept producer that the run evaluates again (READER): k's store of h into
# g, once the edit of f writes h too.  It contributes {0,5} now, not {0}.
READER = """int g = 0;
int h = 0;
int f() { g = 1; return 0; }
int k() { g = h; return 0; }
int main() { a = f(); b = k(); return 0; }
"""


@pytest.mark.parametrize("mode", ["plain", "reluctant"])
@pytest.mark.parametrize("old,edit,expected", [
    (CALLER, ("f(1)", "f(2)"), vs(0, 2, 5)),
    (H_CALLER, ("f(1)", "f(2)"), vs(0, 2, 5)),
    (VALUE, ("k = 1;", "k = 2;"), vs(0, 2, 5, 7)),
    (READER, ("g = 1; return 0;", "g = 1; h = 5; return 0;"), vs(0, 1, 5)),
], ids=["caller", "caller-of-caller", "value", "re-evaluated"])
def test_a_writer_whose_context_the_edit_leaves_loses_its_contribution(
        old, edit, expected, mode, monkeypatch):
    sigmas, resets = reanalyze_both_ways(old, old.replace(*edit), mode, monkeypatch)
    assert resets == [G]  # after the run
    assert sigmas[0] == sigmas[1]
    assert sigmas[0][G] == expected


# A thread stores through a pointer to g or h, in a function that names
# neither; each edit changes the global declarations.
STORE = """int g = 0;
int h = 0;
mutex m;
void* t(void* p) { lock(m); *p = 1; unlock(m); return NULL; }
int main() { q = &g; k = 0; while (k < 1) { q = &h; k = k + 1; } create(t, q); return 0; }
"""


@pytest.mark.parametrize("mode", ["plain", "reluctant"])
@pytest.mark.parametrize("edit", [("int h = 0;", "int h = 3;"),
                                  ("mutex m;", "int n = 0;\nmutex m;")],
                         ids=["initializer", "new-global"])
def test_after_an_edit_of_the_declarations_every_candidate_is_reset(edit, mode, monkeypatch):
    sigmas, resets = reanalyze_both_ways(STORE, STORE.replace(*edit), mode, monkeypatch)
    assert resets == [G, GlobalVar("h")]
    assert sigmas[0] == sigmas[1]
    assert sigmas[0][G] == vs(0, 1)


MODE_COMBINATIONS = [(mode, restart, wpoint_restart) for mode in ("plain", "reluctant")
                     for restart in ("off", "minimal") for wpoint_restart in (False, True)]


@pytest.mark.parametrize("mode,restart,wpoint_restart", MODE_COMBINATIONS)
def test_restarting_from_contributions_gives_the_sigma_of_the_full_restart(
        mode, restart, wpoint_restart, monkeypatch):
    """Corpus edit sequences, run in lockstep with restarting in full as the
    oracle: after every step σ is the oracle's and the producers recorded
    are the last evaluations'.  Each contribution a restart keeps is what
    its producer's pure evaluation side-effected before the restart."""
    opts = cli.Options(mode=mode, restart=restart, wpoint_restart=wpoint_restart)
    resets = []
    reset = increment._reset
    monkeypatch.setattr(increment, "_reset", lambda g, st: (resets.append(g), reset(g, st)))

    def checked_restart(G, sys_, st, roots=()):
        look = sys_.lookup(dict(st.sigma))
        before = {(g, x): eval_tree(sys_.rhs(x), look)[0].sides.get(g)
                  for g in G for x in st.side_dep.get(g, ())
                  if x in st.stable and x not in G[g]}
        kept = restart_globals(G, sys_, st, roots)
        for g, contributions in kept.items():
            for x, d in contributions:
                assert d is not None and d == before[g, x], (g, x)
        return kept

    monkeypatch.setattr(increment, "restart_globals", checked_restart)
    restarted = 0
    spec = CorpusSpec(n_functions=40, seed=7)
    for seed in (1, 2, 3):
        texts = [corpus_source(s) for s in edit_sequence(spec, 8, seed)]
        ours = cli.run_analysis(corpus_source(spec), "p.mc", opts)
        full = cli.run_analysis(corpus_source(spec), "p.mc", opts)
        for step, text in enumerate(texts):
            ours = cli.run_reanalysis(ours.session, text, "p.mc", opts)
            with monkeypatch.context() as m:
                m.setattr(increment, "restart_globals", full_restart_globals)
                full = cli.run_reanalysis(full.session, text, "p.mc", opts)
            assert ours.session.state.sigma == full.session.state.sigma, (seed, step)
            built = build_system(ours.session.program, ours.session.assignment)
            assert_producers_are_the_last_evaluations(built.sys, ours.session.state)
            restarted += len(ours.run_stats["restarted"])
    assert restarted > len(resets) if restart == "minimal" else restarted == 0


def test_interval_reanalyses_are_never_finer_than_scratch():
    """Restarting a global in full re-widens its producers' contributions in
    the order the solver re-evaluates them, the edited producer first.  With
    intervals that order decides the bounds: σ(g0) could end [-inf,21] where
    a run from scratch gives [0,+inf], so the reanalysis was finer than or
    incomparable to scratch.  From the recorded contributions the order is
    the recorded one, which the run from scratch also took."""
    spec = CorpusSpec(n_functions=60, seed=7)
    opts = cli.Options(mode="reluctant", domain="interval")
    for seed in range(1, 9):
        result = cli.run_analysis(corpus_source(spec), "p.mc", opts)
        for step, edited in enumerate(edit_sequence(spec, 10, seed)):
            text = corpus_source(edited)
            result = cli.run_reanalysis(result.session, text, "p.mc", opts)
            report = cli.compare_report(result.session, text, opts)
            assert (report["finer"], report["incomparable"]) == (0, 0), (seed, step)


def test_monotone_accumulation_without_restart():
    new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT, restart="off")
    old_g = vs(0, 1)
    run(new_built.sys, st, pre_solve=A)
    assert leq(old_g, st.sigma[G])


# -- pruning ---------------------------------------------------------------------------


def test_prune_drops_thread_unknowns_after_create_removed():
    no_create = FIG2.replace("create(foo, &g);", "g = 3;")
    new_built, st, changes, A = incremental_setup(FIG2, no_create, mode="plain")
    run(new_built.sys, st, pre_solve=A)
    full_prune(st, full_reachable_set(new_built.sys, st))
    assert not any(isinstance(u, NodeCtx) and u.fn == "foo" for u in st.sigma)
    assert not any(isinstance(u, NodeCtx) and u.fn == "foo" for u in st.stable)
    for m in (st.infl, st.side_dep, st.side_infl):
        for u, members in m.items():
            assert not any(isinstance(y, NodeCtx) and y.fn == "foo" for y in members)
    assert verify_solution(new_built.sys, st) == []


def test_prune_keeps_fully_reachable_state_and_is_idempotent():
    built, st, _ = analyze_source(FIG2)
    snapshot = (dict(st.sigma), set(st.stable))
    full_prune(st, full_reachable_set(built.sys, st))
    assert (dict(st.sigma), set(st.stable)) == snapshot
    once = (dict(st.sigma), set(st.stable),
            {k: list(v) for k, v in st.infl.items()})
    full_prune(st, full_reachable_set(built.sys, st))
    assert (dict(st.sigma), set(st.stable),
            {k: list(v) for k, v in st.infl.items()}) == once


def test_the_walk_from_what_it_reached_follows_the_full_walk_on_random_systems():
    """Random systems whose rhs read data-dependently and side-effect
    globals, edited a few rhs at a time: after each edit's solve, the walk
    from the last walk's `Reach` and its pruning leave what the full walk
    and full pruning leave, every map in order included, and each reached
    stable unknown is in the ``infl`` rows of exactly what its rhs queries.
    The solver section written from the maps' logs is the one a comparison
    of every row finds, and the logs of the rows the run and the walk wrote,
    cut down to the rows that differ, are those that a comparison with a
    snapshot finds.
    The edits make unknowns leave, cycles lose their entry and evaluations
    stop reading what they read before."""
    rng = random.Random(1919)
    walks = left = 0
    for trial in range(150):
        n = rng.randrange(3, 14)
        nodes = [node("t", i) for i in range(n)]
        globs = [GlobalVar(f"g{j}") for j in range(rng.randrange(1, 3))]
        rhs = {x: random_tree(rng, nodes + globs, targets=globs) for x in nodes}
        st = SolverState()
        sys_ = eqsys_from_dict(rhs, nodes[0], lambda u: ValueSet.bot())
        reach = Reach.of(st, sys_.query).find_leaves(sys_)
        start = tables(st)
        stats = run(sys_, st)
        reuse = decide_reuse(st, start, stats["reads"])
        walk = reachable_set(sys_, st, None, reuse, reach)
        prune(st, walk.left)
        assert solver_section(start, st) == full_section(full_tables(SolverState()), st)
        reach = walk.reach
        for step in range(4):
            edited = rng.sample(nodes, rng.randrange(1, 3))
            rhs = {**rhs, **{x: random_tree(rng, nodes + globs, targets=globs) for x in edited}}
            sys_ = eqsys_from_dict(rhs, nodes[0], lambda u: ValueSet.bot())
            before, start = full_tables(st), tables(st)
            for x in edited:
                st.stable.discard(x)
                st.destabilize(x)
            stats = run(sys_, st)
            reuse = decide_reuse(st, start, stats["reads"])
            where = f"trial {trial} step {step}"
            assert logged_differences(st) == differences(before, st), where
            ref = copy.deepcopy(st)
            walk = reachable_set(sys_, st, None, reuse, reach)
            prune(st, walk.left)
            assert logged_differences(st) == differences(before, st), where
            reached = full_reachable_set(sys_, ref)
            full_prune(ref, reached)
            assert walk.reach.succ.keys() == reached.keys(), where
            assert {u: set(out) for u, out in walk.reach.succ.items()} == reached, where
            assert st.sigma == ref.sigma and (st.stable, st.point) == (ref.stable, ref.point), where
            for name in ("infl", "side_dep", "side_infl"):
                ours, theirs = getattr(st, name), getattr(ref, name)
                assert {u: list(row.items()) for u, row in ours.items()} == \
                    {u: list(row.items()) for u, row in theirs.items()}, (where, name)
            assert list(st.infl) == list(ref.infl), where
            assert inexact_infl(sys_, st, walk.reach.succ) == {}, where
            # the rows the run and the walk logged are the rows that changed
            assert solver_section(start, st) == full_section(before, st), where
            reach = walk.reach
            walks += bool(reuse.reusable)
            left += bool(walk.left)
    assert walks > 300 and left > 50  # most walks reuse, many lose unknowns


def test_a_record_holds_what_left_and_not_what_the_run_made_and_pruning_removed():
    """The record of a reanalysis is written from the logs of the rows that
    differ: `z`, which the run creates (the query reads it while the global
    `g` is Bot, and no longer once `p` side-effects `g`) and the walk then
    prunes, is in neither its "put" nor its "gone"; `x`, which the run
    leaves alone and which leaves once the query no longer reads it, is in
    "gone" of σ, stable and ``infl``, logged by pruning.  The record is the
    one a comparison of every row finds, and replayed on the base of the
    state it began from it gives the state in memory."""
    q, x, z, p = (node("t", i) for i in range(4))
    g = GlobalVar("g")

    def query(v):
        then = QGet(p, lambda _: Ans(vs(3)))
        return QGet(z, lambda _: then) if v.is_bot() else then

    first = eqsys_from_dict({q: QGet(x, Ans), x: Ans(vs(1))}, q, lambda u: ValueSet.bot())
    st = SolverState()
    reach = Reach.of(st, q).find_leaves(first)
    start = tables(st)
    reuse = decide_reuse(st, start, run(first, st)["reads"])
    walk = reachable_set(first, st, None, reuse, reach)
    prune(st, walk.left)
    base = solver_section({}, st)
    second = eqsys_from_dict({q: QGet(g, query), x: Ans(vs(1)), z: Ans(vs(2)),
                              p: QSet(g, vs(1), Ans(vs(1)))}, q, lambda u: ValueSet.bot())
    before, start = full_tables(st), tables(st)
    st.stable.discard(q)
    st.destabilize(q)
    stats = run(second, st)
    assert z in stats["reads"] and z in st.sigma and z in st.stable
    reuse = decide_reuse(st, start, stats["reads"])
    walk = reachable_set(second, st, None, reuse, walk.reach)
    assert set(walk.left) == {x, z} and x not in reuse.changed
    prune(st, walk.left)
    doc = solver_section(start, st)
    assert doc == full_section(before, st)
    unknowns = [unknown_from_json(d) for d in doc["unknowns"]]
    assert z not in unknowns
    assert {name: [unknowns[i] for i in keys] for name, keys in doc["gone"].items()} == \
        {"stable": [x], "sigma": [x], "infl": [x]}
    replayed = SolverState()
    for section in (base, doc):
        apply_section(replayed, section)
    assert (replayed.sigma, replayed.stable, replayed.point) == (st.sigma, st.stable, st.point)
    for name in ("infl", "side_dep", "side_infl"):
        assert {u: list(row) for u, row in getattr(replayed, name).items()} == \
            {u: list(row) for u, row in getattr(st, name).items()}, name
    assert (replayed.rhs_evals, replayed.destabilizations) == (st.rhs_evals, st.destabilizations)


def test_reachable_set_covers_harness_and_globals():
    built, st, _ = analyze_source(FIG2)
    R = full_reachable_set(built.sys, st).keys()
    assert {MAIN, INIT, G} <= R
    assert node("foo", 1, BETA0) in R


@pytest.mark.parametrize("declarations", ["", "int gnew = 0;\n"])
def test_an_edit_of_the_global_declarations_makes_nothing_reusable(declarations):
    """The untouched unknowns are derived as after any edit, and with the
    declarations unchanged most of them are reusable; after a new
    declaration, which only the initializer reads, none is."""
    text = corpus_source(CorpusSpec(n_functions=20, seed=7))
    session = cli.run_analysis(text, "prog.mc", cli.Options()).session
    st = session.state
    log = log_stable(st)
    changes, built, _, reuse = reanalyze(
        session.digests, session.assignment, st, parse(declarations + text),
        contexts=recorded_contexts(st, session.assignment))
    untouched, reusable = reuse.untouched, reuse.reusable
    assert changes.changed == ({INIT_PSEUDO_FN} if declarations else set())
    assert {u for u in untouched if built.sys.has_rhs(u)} == \
        {u for u in log.untouched() if built.sys.has_rhs(u)}
    assert len(untouched) > 100
    if declarations:
        assert reusable == set()
    else:
        assert reusable and reusable <= untouched


# -- edit sequences ----------------------------------------------------------------------


SMALL_PROGRAMS = [
    """int g = 0;
int f(int x) { return x + %d; }
int main() { r = f(1); g = r; return g; }
""",
    """int a = 1;
int b = 2;
int scale(int k) { return k * %d; }
int main() { u = scale(2); v = scale(3); a = u; return v + b; }
""",
    """int g = 0;
mutex m;
void* w(void* p) { lock(m); *p = %d; unlock(m); return NULL; }
int main() { create(w, &g); return g; }
""",
    """int g = 3;
int loopy(int n) { i = 0; while (i < n) { i = i + %d; } return i; }
int main() { r = loopy(4); return r + g; }
""",
]


def test_edit_sequences_stay_sound_and_consistent():
    rng = random.Random(2024)
    programs = [tpl % (k + 1) for tpl in SMALL_PROGRAMS for k in range(3)]
    assert len(programs) >= 10
    for pi, base in enumerate(programs):
        text = base
        built, st, _ = analyze_source(text)
        asg = built.assignment
        for step in range(5):
            const = rng.randrange(1, 9)
            new_text = text.replace(text.split("%")[0], text.split("%")[0])  # no-op guard
            # edit: bump the first integer literal after a '+' or '*' or '='
            import re
            m = list(re.finditer(r"(\+|\*|=)\s*(\d+)", text))
            target = m[rng.randrange(len(m))]
            new_text = text[:target.start(2)] + str(const) + text[target.end(2):]
            _, new_built, _, _ = reanalyze(parse(text).digests, asg, st, parse(new_text),
                                           contexts=recorded_contexts(st, asg))
            new_asg = new_built.assignment
            assert verify_solution(new_built.sys, st) == [], f"program {pi} step {step}"
            assert side_maps_inverse(st)
            full_prune(st, full_reachable_set(new_built.sys, st))
            # from-scratch consistency: scratch ⊑ incremental on shared points
            _, scratch, _ = analyze_source(new_text, assignment=new_asg)
            shared = {u for u in st.sigma if isinstance(u, NodeCtx)} & set(scratch.sigma)
            for u in shared:
                assert leq(scratch.sigma[u], st.sigma[u]), f"program {pi} step {step}: {u!r}"
            text, asg = new_text, new_asg
