"""Static hygiene of the package: no function, class, method or module-level
name that nothing uses.

Every module-level function, class or assigned name and every method under
``src/minicheck`` must be named (as a ``Name`` or an ``Attribute``)
somewhere in the package outside its own definition.  Dunders are used by
the language and are exempt.  The allowlist names the entry points that
only code outside the package (the benchmark) uses."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minicheck"

# corpus generators driven by perfbench/run.py
USED_OUTSIDE_THE_PACKAGE = {"corpus_source", "edit_sequence"}


def _definitions(tree: ast.Module):
    """(name, defining statement) of every definition the test covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def test_every_definition_is_used_in_the_package():
    refs = {}  # name -> [(file, line)]
    defs = []  # (name, file, first line, last line)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
        for name, d in _definitions(tree):
            defs.append((name, path, d.lineno, d.end_lineno))
    unused = []
    for name, path, first, last in defs:
        if (name.startswith("__") and name.endswith("__")) or name in USED_OUTSIDE_THE_PACKAGE:
            continue
        if not any(p != path or not first <= line <= last for p, line in refs.get(name, ())):
            unused.append(f"{path.relative_to(PACKAGE)}:{first} {name}")
    assert unused == []


# The persisted format is read in one place: a decoder, a function or method
# named `from_json` or ending in `_from_json`, is called only by the record
# codec (`journal`, the solver section in `tdsolver`, unknowns in `consys`)
# or by another decoder, and defined only there or in `domains`, which
# decodes values and access records.
CODEC = {"journal.py", "tdsolver.py", "consys.py"}
DECODER_MODULES = CODEC | {"domains.py"}


def _is_decoder(name: str) -> bool:
    return name == "from_json" or name.endswith("_from_json")


def test_only_the_codec_decodes():
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        decoders = [node for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_decoder(node.name)]
        if module not in DECODER_MODULES:
            problems += [f"{module}:{d.lineno} defines {d.name}" for d in decoders]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else ""
            if _is_decoder(name) and module not in CODEC and \
                    not any(d.lineno <= node.lineno <= d.end_lineno for d in decoders):
                problems.append(f"{module}:{node.lineno} calls {name}")
    assert problems == []


# An unknown's canonical key (`consys.unknown_key`) is a string made for the
# outside: it is computed only where a key is written, never to identify an
# unknown inside the program.  Every reference to it lies in one of these
# (module, top-level function) pairs; None stands for the whole module.
KEY_WRITERS = {
    ("journal.py", None),  # the producers of access records, on changed rows
    ("cli.py", "_report"),  # the solver's per-unknown statistics, with --stats
    ("increment.py", "reanalyze"),  # the restarted globals
    ("postproc.py", "_unsound_stores"),  # warning provenance
    ("postproc.py", "_dead_code"),
    ("cli.py", "compare_report"),  # the coarser points of a precision report
}


def test_unknown_keys_are_made_only_where_they_are_written():
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if (module, owner) == ("consys.py", "unknown_key"):
                continue  # its definition
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else ""
                if name == "unknown_key" and (module, None) not in KEY_WRITERS and \
                        (module, owner) not in KEY_WRITERS:
                    problems.append(f"{module}:{node.lineno} {owner or '<module>'}")
    assert problems == []
