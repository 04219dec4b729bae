"""The item-by-item front end against a parse of the whole text at once.

`parse(new, previous=parse(old))` must give what `parse(new)` gives, and
both what the whole text gives when it is lexed in one run and its
declarations are parsed in order: the same `Program`, the same digests and
the same local CFGs, or the same error (class, message, line and column).
Sources are random programs of globals, mutexes and functions whose bodies
call each other; edits replace, add and remove items, change a function's
arity under its unchanged callers, add and remove globals, duplicate names,
break the syntax (an unterminated comment, unbalanced braces) and change the
whitespace and comments between items, which shifts the lines below.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from minicheck.minic.cfg import NodeAssignment, assign_node_ids, build_cfgs, build_local_cfg, local_cfg
from minicheck.minic.syntax import (
    Function,
    GlobalDecl,
    MiniCError,
    Program,
    _check_semantics,
    _digest,
    _lex,
    _Parser,
    _resplit,
    _split,
    normalize,
    parse,
)


def whole_text_parse(text: str) -> Program:
    """The parse of the whole text at once: one lexer run, then the
    declarations in order, a duplicate function found when its name is
    read, then the checks of the whole program and of every function."""
    prog = Program()
    p = _Parser(_lex(text), prog.functions)
    while not p.at("eof"):
        decl = p.declaration()
        if isinstance(decl, Function):
            prog.functions[decl.name] = decl
        elif isinstance(decl, GlobalDecl):
            prog.globals.append(decl)
        else:
            prog.mutexes.append(decl)
    _check_semantics(prog, list(prog.functions.values()))
    return prog


def outcome(parse_fn, *args):
    try:
        return parse_fn(*args)
    except (MiniCError, RecursionError) as exc:
        return exc


def error_key(exc: Exception):
    return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


# -- random sources -------------------------------------------------------------

# Between items: whitespace, comments with braces and semicolons, nothing at
# all (a function on the line of a declaration) and a vertical tab, which is
# whitespace to `str.strip` but not to the lexer.
SEPARATORS = ["", " ", "\n", "\n\n\n", "\t", "\r\n", " /* { ; } */ ", "// } ;\n",
              "/* two\nlines */\n", "\x0b"]
BROKEN = ["int x", "}", "{", "/* never closed", "@", "int 5;", "void g;",
          "int f0(int p) { x = ; return p; }", "mutex;", "atomic int h() { return 0; }"]


@st.composite
def expressions(draw, params):
    return draw(st.sampled_from(params + ["1", "a", "g0", "g1", "(a + 2) * 3"]))


@st.composite
def statements(draw, params, valid):
    e = lambda: draw(expressions(params))  # noqa: E731
    choice = draw(st.integers(0, 9 if valid else 13))
    if choice == 0:
        return f"b = {e()} + {e()};"
    if choice == 1:
        return f"g1 = {e()};"
    if choice == 2:
        return f"lock(m0); g0 = {e()}; unlock(m0);"
    if choice == 3:
        return f"r = f0({e()});"
    if choice == 4:
        return f"r = f1({e()}, {e()});"
    if choice == 5:
        return f"create(f0, {e()});"
    if choice == 6:
        return "while (a < 3) { a = a + 1; /* } */ }"
    if choice == 7:
        return f"if ({e()}) {{ b = 2; }} else {{ b = 3; // }} ;\n }}"
    if choice == 8:
        return "*a = 4;"
    if choice == 9:
        return "/* { ; */"
    if choice == 10:  # valid only while g2 is declared
        return "c = g2;"
    if choice == 11:  # an unknown mutex, an undeclared name, a syntax error
        return draw(st.sampled_from(["lock(m9);", "c = zz;", "c = ;"]))
    return f"a = {e()};"


@st.composite
def functions(draw, name: Optional[str] = None, arity: Optional[int] = None,
              valid: bool = False):
    """A function whose statements are valid when `valid` and f0, f1, the
    globals g0, g1 and the mutex m0 are declared as in `programs`."""
    name = name or draw(st.sampled_from(["f0", "f1", "f2", "main"]))
    if arity is None:
        arity = {"f0": 1, "f1": 2, "main": 0}.get(name, draw(st.integers(0, 2)))
    params = ["p", "q"][:arity]
    stmts = ["a = 1;"] + draw(st.lists(statements(params, valid), max_size=4))
    glue = draw(st.sampled_from([" ", "\n  "]))
    head = ", ".join(f"int {p}" for p in params)
    return f"int {name}({head}) {{{glue}{glue.join(stmts)}{glue}return a;{glue[:1]}}}"


@st.composite
def items(draw):
    """A new item: mostly a function or a global that the program may lack,
    sometimes a duplicate or a broken one."""
    kind = draw(st.sampled_from(["function"] * 3 + ["global"] * 2 + ["broken"]))
    if kind == "function":
        return draw(functions(draw(st.sampled_from(["f2", "f3", "f0", "main"]))))
    if kind == "global":
        return draw(st.sampled_from(["atomic int g2 = 3;", "int g2;", "mutex m1;", "int g0;",
                                     "int f0;", "int __x;"]))
    return draw(st.sampled_from(BROKEN))


@st.composite
def programs(draw):
    """A valid program: globals g0, g1, mutex m0, f0(p), f1(p, q) and main."""
    pieces = ["int g0 = 1;", "int g1;", "mutex m0;"] + \
        [draw(functions(name, valid=True)) for name in ("f0", "f1", "main")]
    seps = [draw(st.sampled_from(SEPARATORS[:9])) for _ in range(len(pieces) + 1)]
    return pieces, seps


@st.composite
def edited(draw, program):
    pieces, seps = list(program[0]), list(program[1])
    kind = draw(st.sampled_from(["replace", "insert", "delete", "separator", "arity",
                                 "body"]))
    if kind == "separator" or not pieces:
        i = draw(st.integers(0, len(seps) - 1))
        seps[i] = draw(st.sampled_from(SEPARATORS + ["/* never closed"]))
    elif kind == "insert":
        i = draw(st.integers(0, len(pieces)))
        pieces.insert(i, draw(items()))
        seps.insert(i, draw(st.sampled_from(SEPARATORS)))
    else:
        i = draw(st.integers(0, len(pieces) - 1))
        if kind == "delete":
            del pieces[i]
            del seps[i]
        elif kind == "replace":
            pieces[i] = draw(items())
        else:  # a new body or a new arity for a function, its callers unchanged
            name = pieces[i].split("(")[0].split()[-1] if "(" in pieces[i] else "f0"
            pieces[i] = draw(functions(name, draw(st.integers(0, 2)) if kind == "arity"
                                       else None))
    return pieces, seps


def render(program) -> str:
    pieces, seps = program
    return "".join(s + p for s, p in zip(seps, pieces + [""]))


# -- the property -------------------------------------------------------------------


def assert_same_front_end(inc: Program, full: Program, oracle: Program) -> None:
    assert inc == full == oracle
    expected = {name: [_digest(fn.header()), _digest(normalize(fn.body))]
                for name, fn in oracle.functions.items()}
    assert inc.digests == full.digests
    assert inc.digests["functions"] == expected
    assert list(inc.items) == list(full.items)
    for key, item in inc.items.items():
        if isinstance(item.decl, Function):
            assert local_cfg(item) == local_cfg(full.items[key]) == \
                build_local_cfg(oracle.functions[item.decl.name])


def check_version(text: str, previous: Optional[Program]) -> Optional[Program]:
    """Check the parses of `text`; returns the incremental one, if any."""
    oracle = outcome(whole_text_parse, text)
    full = outcome(parse, text)
    inc = outcome(parse, text, previous)
    if isinstance(oracle, Exception):
        assert isinstance(full, Exception) and isinstance(inc, Exception), text
        assert error_key(full) == error_key(inc) == error_key(oracle), text
        return None
    assert not isinstance(inc, Exception), (text, inc)
    assert_same_front_end(inc, full, oracle)
    old_items = previous.items if previous is not None else {}
    for key, item in inc.items.items():
        if key in old_items:
            assert item is old_items[key]
    assert inc.parsed == sum(isinstance(it.decl, Function)
                             for key, it in inc.items.items() if key not in old_items)
    return inc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_item_parse_equals_whole_text_parse_over_random_edits(data):
    """Each version is parsed against the last one that parsed, as `serve`
    does; after a version that fails, the next edit applies to it or, as
    when its error is fixed, to the last version that parsed."""
    program = valid = data.draw(programs())
    previous = check_version(render(program), None)
    for _ in range(data.draw(st.integers(1, 4))):
        program = data.draw(edited(program if data.draw(st.booleans()) else valid))
        parsed = check_version(render(program), previous)
        if parsed is not None:
            previous, valid = parsed, program


# -- the split of the changed span ---------------------------------------------------

# Pieces of text that the item split treats specially, not all of them valid
# MiniC: declarations, braces, semicolons, comments of both kinds, a "/*"
# that a later piece may close or not, and line breaks.
TEXT_PIECES = ["int g;", "int f(int p) {\n  return p;\n}", "void* t(void* q) { x = 1; }",
               "{", "}", ";", "/*", "*/", "/", "//", "// c }\n", "/* a ;\n b { */", "\n",
               "\n\n", " ", "\t", "x", "g = 2;"]


@st.composite
def edited_text(draw, old: str) -> str:
    """`old` with a span replaced by other pieces, a line inserted or a
    line removed."""
    kind = draw(st.sampled_from(["replace", "insert line", "remove line"]))
    lines = old.split("\n")
    if kind == "replace":
        i = draw(st.integers(0, len(old)))
        j = draw(st.integers(i, len(old)))
        return old[:i] + "".join(draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=3))) + \
            old[j:]
    k = draw(st.integers(0, len(lines) - (kind == "remove line")))
    added = [draw(st.sampled_from(TEXT_PIECES))] if kind == "insert line" else []
    return "\n".join(lines[:k] + added + lines[k + (kind == "remove line"):])


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_the_split_of_the_changed_span_equals_the_split_of_the_whole_text(data):
    """Splitting only the span of a text that an edit changed, given the
    split of the text before, finds the items and offsets that splitting
    the whole text finds, valid MiniC or not, edit after edit."""
    old = "".join(data.draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=16)))
    split = _split(old)
    assert _resplit(old, *split, old) == split
    for _ in range(data.draw(st.integers(1, 3))):
        new = data.draw(edited_text(old))
        resplit = _resplit(old, *split, new)
        assert resplit == _split(new), (old, new)
        old, split = new, resplit


def test_an_arity_change_breaks_an_unchanged_caller():
    caller = "int main() { r = f0(1); return r; }\n"
    versions = ["int f0(int p) { return p; }\n" + caller,
                "int f0(int p, int q) { return p; }\n" + caller,
                "int f0(int p) { return p; }\n" + caller]
    previous = check_version(versions[0], None)
    assert check_version(versions[1], previous) is None
    assert check_version(versions[2], previous).parsed == 0


def test_unsure_splits_give_the_whole_text_error():
    """An unterminated comment, a brace too many or too few and trailing
    text fail as the whole text does, also after a valid version."""
    base = "int g = 1;\nint main() { x = g; return x; }\n"
    previous = parse(base)
    for text in [base + "/* open", base + "}", "int main() { x = 1;\n", base + "int y",
                 base.replace("{", "{ {", 1), "/* a */ int g = 1; // end"]:
        check_version(text, previous)


def test_a_line_shift_reparses_the_items_below_it():
    functions_: List[str] = [f"int f{i}(int p) {{ return p; }}" for i in range(4)]
    base = "\n".join(functions_ + ["int main() { return 0; }"]) + "\n"
    previous = parse(base)
    assert previous.parsed == 5
    same_lines = parse(base.replace("return p; }", "return p + 1; }", 1), previous)
    assert same_lines.parsed == 1
    shifted = parse(base.replace("return p; }", "\nreturn p; }", 1), previous)
    assert shifted.parsed == 5
    below = parse(base.replace("int f3", "\nint f3"), previous)
    assert below.parsed == 2


def test_a_reused_cfg_is_rebuilt_when_the_global_names_change():
    base = "int main() { a = 1; return a; }\n"
    old = parse(base)
    ids = assign_node_ids(old, NodeAssignment(), set(), set())
    cfg = build_cfgs(old, ids)["main"]
    assert cfg.locals == ["a", "ret"]
    assert build_cfgs(parse(base + "// no new item\n", old), ids)["main"] is cfg
    new = parse(base + "int a;\n", old)
    assert new.functions["main"] is old.functions["main"]
    assert build_cfgs(new, ids)["main"].locals == ["ret"]
