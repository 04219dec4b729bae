"""Random edits of the global declarations and of the locals of small
programs: the reanalysis must verify and be no less sound than a run from
scratch, in both destabilization modes.

A template program has one to three globals, up to two helper functions
and one function that never returns (`w`, or `main` itself).  Every name a
function reads it also assigns, so the program stays valid whichever of
those names are declared global: an edit can add a global that functions
name (turning their locals into it), remove one (turning it back into
locals) or add a local to a function.
"""

from dataclasses import dataclass, replace
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicheck import cli

NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Template:
    globals: Tuple[Tuple[str, int], ...]
    functions: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (name, statements), main last
    loop: str  # "thread": main creates w; "call": main calls w; "main": main loops
    fresh: int = 0  # locals added so far

    def names(self) -> set:
        return {n for _, stmts in self.functions for s in stmts for n in NAMES
                if s.startswith(f"{n} =")}

    def source(self) -> str:
        lines = [f"int {g} = {v};" for g, v in self.globals]
        *helpers, (_, main_body) = self.functions
        calls = []
        for name, stmts in helpers:
            body = " ".join(stmts)
            if name == "w":
                lines.append(f"int w(int x) {{ while (1) {{ {body} }} return 0; }}")
            else:
                lines.append(f"int {name}(int x) {{ {body} return {stmts[0][0]}; }}")
                calls.append(f"r = {name}(1);")
        body = " ".join(main_body)
        if self.loop == "thread":
            main = f"create(w, 1); {' '.join(calls)} {body} return 0;"
        elif self.loop == "call":
            main = f"{' '.join(calls)} r = w(1); {body} return 0;"
        else:
            main = f"{' '.join(calls)} while (1) {{ {body} }} return 0;"
        lines.append(f"int main() {{ {main} }}")
        return "\n".join(lines) + "\n"


@st.composite
def bodies(draw, param=True):
    """Statements that assign one to three names of NAMES and read only
    those names, the parameter `x` and literals."""
    assigned = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    readable = assigned + (["x"] if param else [])

    def expr():
        return draw(st.one_of(st.integers(0, 5).map(str), st.sampled_from(readable),
                              st.sampled_from(readable).map(lambda v: f"{v} + 1")))

    stmts = [f"{v} = {expr()};" for v in assigned]
    if draw(st.booleans()):
        cond, target = draw(st.sampled_from(assigned)), draw(st.sampled_from(assigned))
        stmts.append(f"if ({cond} < 3) {{ {target} = {expr()}; }}")
    return tuple(stmts)


@st.composite
def templates(draw):
    globals_ = draw(st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3),
                                    min_size=1, max_size=3))
    loop = draw(st.sampled_from(["thread", "call", "main"]))
    names = [f"f{i}" for i in range(draw(st.integers(0, 2)))]
    if loop != "main":
        names.append("w")
    functions = [(name, draw(bodies())) for name in names]
    functions.append(("main", draw(bodies(param=False))))
    return Template(tuple(sorted(globals_.items())), tuple(functions), loop)


@st.composite
def edits(draw, t: Template):
    """`t` with a global added that some function names, a global removed
    or a local added to one function."""
    declared = {g for g, _ in t.globals}
    kinds = ["local"] + (["undeclare"] if declared else []) + \
        (["declare"] if t.names() - declared else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "declare":
        name = draw(st.sampled_from(sorted(t.names() - declared)))
        return replace(t, globals=t.globals + ((name, draw(st.integers(0, 3))),))
    if kind == "undeclare":
        name = draw(st.sampled_from(sorted(declared)))
        return replace(t, globals=tuple(g for g in t.globals if g[0] != name))
    i = draw(st.integers(0, len(t.functions) - 1))
    name, stmts = t.functions[i]
    value = "x + 1" if name != "main" else "7"
    functions = list(t.functions)
    functions[i] = (name, stmts + (f"z{t.fresh} = {value};",))
    return replace(t, functions=tuple(functions), fresh=t.fresh + 1)


@pytest.mark.parametrize("mode", ["plain", "reluctant"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edits_of_declarations_and_locals_verify_and_stay_sound(mode, data):
    t = data.draw(templates())
    versions = [t]
    for _ in range(data.draw(st.integers(1, 3))):
        versions.append(data.draw(edits(versions[-1])))
    opts = cli.Options(mode=mode)
    session = cli.run_analysis(t.source(), "prog.mc", opts).session
    for v in versions[1:]:
        # Raises StateCorruption (exit 2) if the result does not verify.
        session = cli.run_reanalysis(session, v.source(), "prog.mc", opts).session
        report = cli.compare_report(session, v.source(), opts)
        assert report["finer"] == report["incomparable"] == 0, v.source()
