import json
import random

from minicheck.consys import (
    INIT,
    MAIN,
    Context,
    GlobalVar,
    NodeCtx,
    StartOf,
)
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import AddressSet, ValueSet, leq
from minicheck.increment import (
    INIT_PSEUDO_FN,
    ChangeSet,
    detect_changes,
    prepare_plain,
    prepare_reluctant,
    prune,
    reachable_set,
    reanalyze,
    relabel_nodes,
    restart_globals,
    select_restart_globals,
)
from minicheck.minic import build_system, parse
from minicheck.minic.syntax import normalize
from minicheck.tdsolver import run, verify_solution

from support import FIG2, FIG2_EDIT, analyze_source, fresh_assignment, side_maps_inverse

BETA0 = Context.of({"p": AddressSet.of(["g"])})
G = GlobalVar("g")


def vs(*xs):
    return ValueSet.of(xs)


def node(fn, i, ctx=Context.EMPTY):
    return NodeCtx(fn, i, ctx)


def node_stable(st):
    return {u for u in st.stable if isinstance(u, NodeCtx)}


def incremental_setup(old_text, new_text, mode="reluctant", restart="off"):
    """Analyze old_text, then prepare reanalysis of new_text: returns the
    state after preparation plus everything needed to run step 1/2."""
    built, st, _ = analyze_source(old_text)
    new_prog = parse(new_text)
    changes = detect_changes(parse(old_text).digests, new_prog)
    G_sel = select_restart_globals(changes, st, built.assignment) if restart == "minimal" else []
    new_asg = relabel_nodes(changes, built.assignment, new_prog)
    new_built = build_system(new_prog, new_asg)
    prep = prepare_reluctant if mode == "reluctant" else prepare_plain
    A = prep(changes, st, built.assignment, new_built)
    restart_globals(G_sel, st)
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


def _structural_changes(old, new) -> ChangeSet:
    """Change detection on the ASTs of both versions, as it was before the
    old version was known by its digests alone."""
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
    assert st.superstable <= st.stable


def test_prepare_plain_on_empty_changeset_is_noop():
    built, st, _ = analyze_source(FIG2)
    stable_before = set(st.stable)
    changes = detect_changes(parse(FIG2).digests, parse(FIG2))
    prepare_plain(changes, st, built.assignment, built)
    assert st.stable == stable_before
    assert st.superstable == stable_before


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
    by_unknown = stats["step2_evals_by_unknown"]
    from minicheck.consys import unknown_key
    assert by_unknown.get(unknown_key(node("main", 5))) == 1


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
    A = prepare_reluctant(changes, st, built.assignment, new_built)
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
    A = prepare_reluctant(changes, st, built.assignment, new_built)
    # f is excluded from A; only main's return unknown is re-solved reluctantly
    assert all(u.fn == "main" for u in A)
    stats = run(new_built.sys, st, pre_solve=A)
    assert verify_solution(new_built.sys, st) == []


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
    assert select_restart_globals(changes, st, built.assignment) == [G]


def test_select_restart_globals_pure_function_edit():
    src = """
int g = 0;
int f(int x) { return x + 1; }
int main() { r = f(1); return r + g; }
"""
    edited = src.replace("x + 1", "x + 2")
    built, st, _ = analyze_source(src)
    changes = detect_changes(parse(src).digests, parse(edited))
    assert select_restart_globals(changes, st, built.assignment) == []


def test_select_restart_globals_init_edit():
    built, st, _ = analyze_source(FIG2)
    new_text = FIG2.replace("atomic int g = 0 ;", "atomic int g = 9 ;")
    changes = detect_changes(parse(FIG2).digests, parse(new_text))
    assert select_restart_globals(changes, st, built.assignment) == [G]


def test_restart_matches_fig6_and_recovers_precision():
    new_built, st, changes, A = incremental_setup(FIG2, FIG2_EDIT, restart="minimal")
    # after restarting G={g}: only the entry nodes stay stable; g is reset
    assert node_stable(st) == {node("foo", 0, BETA0), node("main", 3)}
    assert G not in st.sigma and G not in st.stable
    stats = run(new_built.sys, st, pre_solve=A)
    assert st.sigma[G] == vs(0, 2)
    assert st.sigma[node("main", 5)].env.get("ret") == vs(0, 2)
    assert verify_solution(new_built.sys, st) == []
    assert side_maps_inverse(st)


def test_restart_globals_empty_is_noop():
    built, st, _ = analyze_source(FIG2)
    sigma_before = dict(st.sigma)
    restart_globals([], st)
    assert st.sigma == sigma_before


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
    prune(new_built.sys, st)
    assert not any(isinstance(u, NodeCtx) and u.fn == "foo" for u in st.sigma)
    assert not any(isinstance(u, NodeCtx) and u.fn == "foo" for u in st.stable)
    for m in (st.infl, st.side_dep, st.side_infl):
        for u, members in m.items():
            assert not any(isinstance(y, NodeCtx) and y.fn == "foo" for y in members)
    assert verify_solution(new_built.sys, st) == []


def test_prune_keeps_fully_reachable_state_and_is_idempotent():
    built, st, _ = analyze_source(FIG2)
    snapshot = (dict(st.sigma), set(st.stable))
    prune(built.sys, st)
    assert (dict(st.sigma), set(st.stable)) == snapshot
    once = (dict(st.sigma), set(st.stable),
            {k: list(v) for k, v in st.infl.items()})
    prune(built.sys, st)
    assert (dict(st.sigma), set(st.stable),
            {k: list(v) for k, v in st.infl.items()}) == once


def test_reachable_set_covers_harness_and_globals():
    built, st, _ = analyze_source(FIG2)
    R = reachable_set(built.sys, st)
    assert {MAIN, INIT, G, StartOf("__main", Context.EMPTY)} <= R
    assert node("foo", 1, BETA0) in R


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
            _, new_built, _, _ = reanalyze(parse(text).digests, asg, st, parse(new_text))
            new_asg = new_built.assignment
            assert verify_solution(new_built.sys, st) == [], f"program {pi} step {step}"
            assert side_maps_inverse(st)
            prune(new_built.sys, st)
            # from-scratch consistency: scratch ⊑ incremental on shared points
            _, scratch, _ = analyze_source(new_text, assignment=new_asg)
            shared = {u for u in st.sigma if isinstance(u, NodeCtx)} & set(scratch.sigma)
            for u in shared:
                assert leq(scratch.sigma[u], st.sigma[u]), f"program {pi} step {step}: {u!r}"
            text, asg = new_text, new_asg
