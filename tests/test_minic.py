import random

import pytest

from minicheck.consys import (
    AccCollector,
    Context,
    GlobalVar,
    NodeCtx,
    StartOf,
    eval_tree,
)
from minicheck.domains import (
    AddressSet,
    Env,
    Interval,
    LocalState,
    Lockset,
    ValueSet,
    leq,
)
from minicheck.minic import (
    AnalysisConfig,
    ParseError,
    SemanticError,
    assign_node_ids,
    build_system,
    parse,
)
from minicheck.corpus import CorpusSpec, corpus_source
from minicheck.minic.cfg import Guard, build_cfgs, build_local_cfg
from minicheck.minic.syntax import _KEYWORDS, _lex, normalize

from support import FIG2, analyze_source

BETA0 = Context.of({"p": AddressSet.of(["g"])})


def vs(*xs):
    return ValueSet.of(xs)


def build(text, domain="valueset"):
    prog = parse(text)
    asg = assign_node_ids(prog, None, set(), set())
    return build_system(prog, asg, AnalysisConfig(domain=domain))


# -- parsing -------------------------------------------------------------------


def test_parse_fig2():
    prog = parse(FIG2)
    assert prog.global_names() == {"g"}
    assert list(prog.functions) == ["foo", "main"]
    assert prog.globals[0].atomic and prog.globals[0].init == 0
    assert prog.functions["foo"].ret_type == "void*"
    assert prog.functions["foo"].params[0].type == "void*"


def test_parse_empty_main():
    prog = parse("int main(){ return 0; }")
    assert list(prog.functions) == ["main"]


def test_malformed_store_is_rejected():
    with pytest.raises(ParseError):
        parse("int main(){ *5 = 1; return 0; }")


def test_duplicate_definition_rejected():
    with pytest.raises(SemanticError):
        parse("int g = 0; int g = 1; int main(){ return 0; }")
    with pytest.raises(ParseError):
        parse("int f(int x){ return x; } int f(int y){ return y; } int main(){ return 0; }")


def test_unknown_identifier_rejected():
    with pytest.raises(SemanticError) as e:
        parse("int main(){ x = y + 1; return 0; }")
    assert "y" in str(e.value)


def test_unresolved_create_target_rejected():
    with pytest.raises(SemanticError):
        parse("int main(){ create(nothere, 0); return 0; }")


def test_missing_main_rejected():
    with pytest.raises(SemanticError):
        parse("int f(int x){ return x; }")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as e:
        parse("int main(){\n  x = ;\n}")
    assert e.value.line == 2


def test_comments_and_whitespace_do_not_change_normalized_ast():
    a = parse(FIG2)
    b = parse(FIG2.replace("*p = 1;", "/* write */  *p = 1;  // here"))
    assert normalize(a.functions["foo"].body) == normalize(b.functions["foo"].body)


# The lexer as it was before it became one loop over a regular expression:
# the reference the current one is compared against.
_REFERENCE_PUNCT = ["==", "!=", "<", ">", "+", "-", "*", "&", "(", ")", "{", "}", ";", ",", "="]


def _reference_lex(src):
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            j = src.find("\n", i)
            i = n if j < 0 else j
            continue
        if src.startswith("/*", i):
            j = src.find("*/", i + 2)
            if j < 0:
                err("unterminated comment")
            skipped = src[i:j + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            toks.append(("kw" if word in _KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for p in _REFERENCE_PUNCT:
            if src.startswith(p, i):
                toks.append(("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            err(f"unexpected character {c!r}")
    toks.append(("eof", "", line, col))
    return toks


def _outcome(lex, src):
    try:
        return [tuple(t) for t in lex(src)]
    except ParseError as exc:
        return exc


# "é" starts identifiers, "٣" is an Arabic-Indic decimal digit; "²" and "①"
# are digits but not decimal ones, and "½" is numeric but not a digit.
_LEX_ALPHABET = list("ab_x1 09\t\n\r/*=!<>+-&(){};,@é٣²①½") + \
    ["//", "/*", "*/", "int", "while", "NULL"]


def test_lexer_agrees_with_the_reference_lexer():
    rng = random.Random(5)
    for _ in range(20000):
        src = "".join(rng.choice(_LEX_ALPHABET) for _ in range(rng.randrange(25)))
        old, new = _outcome(_reference_lex, src), _outcome(_lex, src)
        if isinstance(old, ParseError):
            # the same error, unless a non-decimal digit stops the new lexer first
            assert isinstance(new, ParseError), src
            if not any(c.isdigit() and not c.isdecimal() for c in src):
                assert (new.message, new.line, new.col) == (old.message, old.line, old.col), src
            else:
                assert (new.line, new.col) <= (old.line, old.col), src
            continue
        bad = [t for t in old if t[0] == "int" and not t[1].isdecimal()]
        if not bad:
            assert new == old, src
            continue
        # the reference made an int literal that `int()` rejects
        kind, text, line, col = bad[0]
        k = next(i for i, c in enumerate(text) if not c.isdecimal())
        assert isinstance(new, ParseError), src
        assert (new.message, new.line, new.col) == \
            (f"unexpected character {text[k]!r}", line, col + k), src


def test_a_non_decimal_digit_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        parse("int g = ²;\nint main() { return g; }\n")
    assert (e.value.message, e.value.line, e.value.col) == ("unexpected character '²'", 1, 9)
    prog = parse("int g = ٣;\nint main() { xé² = g; return xé²; }\n")
    assert prog.globals[0].init == 3
    assert prog.functions["main"].body.stmts[0].target == "xé²"


def test_an_integer_literal_too_long_to_convert_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        parse("int main() { x = " + "1" * 5000 + "; return x; }")
    assert (e.value.message, e.value.line, e.value.col) == \
        ("integer literal of 5000 digits is too long", 1, 18)


# -- CFG construction -------------------------------------------------------------


def test_fig2_node_numbering_matches_reference_layout():
    prog = parse(FIG2)
    asg = assign_node_ids(prog, None, set(), set())
    assert asg.assign == {"foo": (0, 1, 2), "main": (3, 4, 5)}
    assert asg.counter == 6


def test_entry_has_no_incoming_edges_and_return_is_last():
    prog = parse("""
int g = 0;
int helper(int x) {
  y = x + 1;
  if (y > 3) { y = 0; } else { y = 1; }
  while (y < 2) { y = y + 1; }
  return y;
}
int main(){ r = helper(1); return r; }
""")
    for fn in prog.functions.values():
        cfg = build_local_cfg(fn)
        targets = {e.dst for e in cfg.edges}
        sources = {e.src for e in cfg.edges}
        assert 0 not in targets or fn.name == "helper"  # loop back-edge may target head
        assert cfg.n_nodes - 1 not in sources  # return node has no successors


def test_in_edge_index_agrees_with_a_scan_of_the_edges():
    prog = parse(corpus_source(CorpusSpec(n_functions=30, seed=7)))
    cfgs = build_cfgs(prog, assign_node_ids(prog, None, set(), set()))
    for cfg in cfgs.values():
        nodes = set(cfg.node_ids) | {e.src for e in cfg.edges}
        for dst in nodes:
            assert cfg.in_edges(dst) == [e for e in cfg.edges if e.dst == dst]
            for src in nodes:
                scanned = [e for e in cfg.edges if e.src == src and e.dst == dst]
                assert cfg.edge_between(src, dst) == (scanned[0] if scanned else None)


def test_loop_as_first_statement_gets_its_own_head():
    # the back edge must not target the entry node: entry right-hand sides
    # are constant Bot, so a back edge into them would be ignored
    built, st, _ = analyze_source("""
int spin(int n) { while (n > 0) { n = n - 1; } return n; }
int main() { r = spin(2); return r; }
""")
    for cfg in built.cfgs.values():
        assert all(e.dst != cfg.entry for e in cfg.edges)
    from minicheck.tdsolver import verify_solution
    assert verify_solution(built.sys, st) == []
    ret = st.sigma[NodeCtx("main", built.cfgs["main"].ret, Context.EMPTY)]
    assert ret.env.get("ret") == vs(0)


def test_while_loop_shape():
    prog = parse("int main(){ i = 0; while (i < 3) { i = i + 1; } return i; }")
    cfg = build_local_cfg(prog.functions["main"])
    guards = [e for e in cfg.edges if isinstance(e.label, Guard)]
    assert len(guards) == 2
    (t,) = [e for e in guards if e.label.sense]
    (f,) = [e for e in guards if not e.label.sense]
    assert t.src == f.src  # both leave the loop head
    back = [e for e in cfg.edges if e.label is None and e.dst == t.src]
    assert back, "loop body must flow back to the head"


# -- constraint generation ----------------------------------------------------------


def test_create_rhs_sides_entry_and_queries_endpoint():
    built = build(FIG2)
    tree = built.sys.rhs(NodeCtx("main", 4, Context.EMPTY))
    look = built.sys.lookup({NodeCtx("main", 3, Context.EMPTY):
                             LocalState(Env.of({"ret": ValueSet.top()}), Lockset.top())})
    es, _ = eval_tree(tree, look)
    assert NodeCtx("foo", 0, BETA0) in es.sides
    side_state = es.sides[NodeCtx("foo", 0, BETA0)]
    assert side_state.env.get("p") == AddressSet.of(["g"])
    assert side_state.env.get("ret") == AddressSet.top()
    assert NodeCtx("foo", 2, BETA0) in es.queried


def test_store_rhs_sides_all_pointees():
    built = build("""
int g = 0;
int h = 0;
void* foo(void* p) {
  *p = 1;
  return NULL;
}
int main() { create(foo, &g); create(foo, &h); return 0; }
""")
    ctx = Context.of({"p": AddressSet.of(["g", "h"])})
    pre = LocalState(Env.of({"p": AddressSet.of(["g", "h"]), "ret": AddressSet.top()}),
                     Lockset.top())
    foo_cfg = built.cfgs["foo"]
    tree = built.sys.rhs(NodeCtx("foo", foo_cfg.node_ids[1], ctx))
    es, _ = eval_tree(tree, built.sys.lookup({NodeCtx("foo", foo_cfg.entry, ctx): pre}))
    assert es.sides[GlobalVar("g")] == vs(1)
    assert es.sides[GlobalVar("h")] == vs(1)


def test_transfer_on_bot_source_produces_bot_and_no_emissions():
    built = build(FIG2)
    tree = built.sys.rhs(NodeCtx("foo", 1, BETA0), postproc=True)
    es, v = eval_tree(tree, built.sys.lookup({}))  # predecessor is Bot
    assert v == LocalState.bot()
    assert not es.sides


def test_access_emission_only_in_postprocessing_mode():
    built, st, _ = analyze_source(FIG2)
    look = built.sys.lookup(st.sigma)
    u1 = NodeCtx("foo", 1, BETA0)
    es_solve, _ = eval_tree(built.sys.rhs(u1), look)
    assert not any(isinstance(t, AccCollector) for t in es_solve.sides)
    es_post, _ = eval_tree(built.sys.rhs(u1, postproc=True), look)
    accs = {t: v for t, v in es_post.sides.items() if isinstance(t, AccCollector)}
    assert set(accs) == {AccCollector("g")}
    (rec,) = next(iter(accs.values())).records
    assert rec.kind == "write" and rec.fn == "foo"


def test_locked_access_records_held_lockset():
    built, st, _ = analyze_source("""
int g = 0;
mutex m;
int main() {
  lock(m);
  g = 1;
  unlock(m);
  return g;
}
""")
    look = built.sys.lookup(st.sigma)
    cfg = built.cfgs["main"]
    write_node = cfg.node_ids[2]  # entry -> lock -> write
    es, _ = eval_tree(built.sys.rhs(NodeCtx("main", write_node, Context.EMPTY), postproc=True), look)
    (recs,) = [v.records for t, v in es.sides.items() if isinstance(t, AccCollector)]
    (rec,) = recs
    assert rec.kind == "write"
    assert rec.locks == Lockset.of(["m"])
    # ... and the read after unlock holds nothing
    es, _ = eval_tree(built.sys.rhs(NodeCtx("main", cfg.ret, Context.EMPTY), postproc=True), look)
    (recs,) = [v.records for t, v in es.sides.items() if isinstance(t, AccCollector)]
    (rec,) = recs
    assert rec.kind == "read" and rec.locks == Lockset.top()


def test_context_sensitivity_single_context_for_foo():
    _, st, _ = analyze_source(FIG2)
    foo_ctxs = {u.ctx for u in st.sigma if isinstance(u, NodeCtx) and u.fn == "foo"}
    assert foo_ctxs == {BETA0}


def test_two_call_sites_two_contexts():
    built, st, _ = analyze_source("""
int add(int x) { return x + 1; }
int main() {
  a = add(1);
  b = add(2);
  return a + b;
}
""")
    ctxs = {u.ctx for u in st.sigma if isinstance(u, NodeCtx) and u.fn == "add"}
    assert ctxs == {Context.of({"x": vs(1)}), Context.of({"x": vs(2)})}
    add_ret = built.cfgs["add"].ret
    ret_vals = {st.sigma[u].env.get("ret")
                for u in st.sigma
                if isinstance(u, NodeCtx) and u.fn == "add" and u.node == add_ret}
    assert ret_vals == {vs(2), vs(3)}
    main_ret = st.sigma[NodeCtx("main", built.cfgs["main"].ret, Context.EMPTY)]
    assert main_ret.env.get("ret") == vs(5)


def test_guard_refinement_prunes_infeasible_branch():
    built, st, _ = analyze_source("""
int main() {
  x = 3;
  if (x > 5) { y = 1; } else { y = 2; }
  return y;
}
""")
    ret = st.sigma[NodeCtx("main", built.cfgs["main"].ret, Context.EMPTY)]
    assert ret.env.get("ret") == vs(2)


def test_guard_refinement_is_reductive():
    built, st, _ = analyze_source("""
int main() {
  x = 7;
  while (x > 0) { x = x - 1; }
  return x;
}
""")
    ret = [s for u, s in st.sigma.items()
           if isinstance(u, NodeCtx) and u.fn == "main" and u.node == built.cfgs["main"].ret]
    assert ret[0].env.get("ret") == vs(0)


def test_interval_domain_loop():
    built, st, _ = analyze_source(
        "int main(){ i = 0; while (i < 10) { i = i + 1; } return i; }",
        domain="interval")
    ret = st.sigma[NodeCtx("main", built.cfgs["main"].ret, Context.EMPTY)]
    assert leq(ret.env.get("ret"), Interval.of(10, 10))


def test_bounded_recursion_terminates_with_exact_result():
    built, st, _ = analyze_source("""
int fac(int n) {
  if (n < 1) { r = 1; } else { m = fac(n - 1); r = n * m; }
  return r;
}
int main() { x = fac(3); return x; }
""")
    from minicheck.tdsolver import verify_solution
    assert verify_solution(built.sys, st) == []
    ret = st.sigma[NodeCtx("main", built.cfgs["main"].ret, Context.EMPTY)]
    assert ret.env.get("ret") == vs(6)


def test_unbounded_context_growth_hits_depth_diagnostic(monkeypatch):
    # full context sensitivity diverges on ever-growing arguments; the
    # defensive depth bound turns the hang into a diagnostic
    import pytest as _pytest
    from minicheck import tdsolver
    monkeypatch.setattr(tdsolver, "MAX_SOLVE_DEPTH", 300)
    with _pytest.raises(tdsolver.SolverDepthError):
        analyze_source("""
int f(int n) { m = f(n + 1); return m; }
int main() { x = f(0); return x; }
""")


def test_start_unknown_is_seeded():
    built, st, _ = analyze_source(FIG2)
    s = StartOf("__main", Context.EMPTY)
    assert s in built.sys.starts
    assert st.sigma[s].env.get("ret") == ValueSet.top()


def test_harness_reads_globals_of_declared_initializers():
    built, st, _ = analyze_source("int a = 3; int b = 0; int main(){ return a; }")
    assert st.sigma[GlobalVar("a")] == vs(3)
    # b is initialized by the harness even though main never reads it
    assert st.sigma[GlobalVar("b")] == vs(0)
