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

from minicheck import tdsolver

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


# The solver's maps are written only by `tdsolver.Rows`, whose methods log
# each row they change while a reanalysis runs; a record visits only the
# logged rows.  A row written in another way would silently be missing from
# the journal.  So no code outside that class calls a dict's mutating
# method on a map or on a row of one, deletes from one or assigns an item
# of one.  A row of a map is anything bound, in the same function, from an
# expression that names a map or another such binding.
MAP_NAMES = {"infl", "side_dep", "side_infl"}
MUTATORS = {"pop", "popitem", "setdefault", "update", "clear", "__setitem__", "__delitem__"}


def _bound_names(target) -> list:
    """The names an assignment to `target` binds: not those in an item or
    an attribute it stores into."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for t in target.elts for n in _bound_names(t)]
    return _bound_names(target.value) if isinstance(target, ast.Starred) else []


def _map_bindings(scope: ast.AST) -> set:
    """The names `scope` binds, anywhere in it, from a map or a row of one."""
    bindings = []  # (names bound, the expression they are bound from)
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            bindings += [(_bound_names(t), node.value) for t in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and node.value:
            bindings.append((_bound_names(node.target), node.value))
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((_bound_names(node.target), node.iter))
    names: set = set()
    while True:
        more = {n for bound, value in bindings if _names_a_map(value, names) for n in bound}
        if more <= names:
            return names
        names |= more


def _names_a_map(expr: ast.AST, rows: set) -> bool:
    return any((isinstance(n, ast.Attribute) and n.attr in MAP_NAMES)
               or (isinstance(n, ast.Name) and (n.id in MAP_NAMES or n.id in rows))
               for n in ast.walk(expr))


def _row_writes(scope: ast.AST, rows: set):
    """(line, what) of each write to a map or a row of one in `scope`."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATORS and _names_a_map(node.func.value, rows):
            yield node.lineno, f".{node.func.attr}()"
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        for target in targets:
            if isinstance(target, ast.Subscript) and _names_a_map(target.value, rows):
                yield node.lineno, "del" if isinstance(node, ast.Delete) else "item assignment"


def test_only_the_rows_class_writes_a_map_row():
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if module == "tdsolver.py" and isinstance(top, ast.ClassDef) and top.name == "Rows":
                continue
            scopes = [top] if not isinstance(top, ast.ClassDef) else top.body
            for scope in scopes:
                rows = _map_bindings(scope)
                problems += [f"{module}:{line} {what}" for line, what in _row_writes(scope, rows)]
    assert problems == []


# σ, stable and point log their own writes, like the maps (`tdsolver.Values`
# and `tdsolver.Members`): a record visits only the rows their logs hold, so
# a write that is not one of their logging methods would silently be missing
# from the journal.  These are the (module, function) pairs that write σ,
# stable or point: the logging classes, the solver, destabilization and the
# decoder, and the reanalysis' dropping of old nodes, destabilization up
# front, restarts and pruning; a class stands for all its methods.
# postproc, journal and cli write none of them.  A write is a mutating
# method call, an item assignment or deletion, or an augmented assignment,
# on the table or on a name bound to it (directly, by `getattr`, or element
# by element from a tuple), or a `dict` or `set` method called on it
# directly (``dict.__setitem__(st.sigma, …)``), as the logging classes do
# with ``self``.
TABLE_NAMES = {"sigma", "stable", "point"}
TABLE_MUTATORS = MUTATORS | {"add", "discard", "remove", "difference_update",
                             "intersection_update", "symmetric_difference_update"}
LOGGING = {"sigma": tdsolver.Values, "stable": tdsolver.Members, "point": tdsolver.Members}
TABLE_WRITERS = {
    ("tdsolver.py", "Values"),
    ("tdsolver.py", "Members"),
    ("tdsolver.py", "Solver"),
    ("tdsolver.py", "SolverState.destabilize"),
    ("tdsolver.py", "state_from_json"),
    ("increment.py", "_drop_old_nodes"),
    ("increment.py", "prepare_plain"),
    ("increment.py", "prepare_reluctant"),
    ("increment.py", "restart_globals"),
    ("increment.py", "_reset"),
    ("increment.py", "prune"),
}


def _tables_of(expr: ast.AST, aliases: dict) -> set:
    """The tables `expr` is or may be (a name bound by `getattr` may be
    any): σ, stable or point; none if it is no table."""
    if isinstance(expr, ast.Attribute) and expr.attr in TABLE_NAMES:
        return {expr.attr}
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id, set())
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and \
            expr.func.id == "getattr":
        return set(TABLE_NAMES)
    return set()


def _table_aliases(scope: ast.AST, aliases: dict) -> dict:
    """`aliases` and the names `scope` binds, anywhere in it, to σ or a
    set, each with the tables it may be."""
    pairs = []  # (target, the expression bound to it)
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
    names = dict(aliases)
    while True:
        more = {t.id: _tables_of(value, names) for t, value in pairs
                if isinstance(t, ast.Name) and _tables_of(value, names)}
        if all(names.get(n, set()) >= tables for n, tables in more.items()):
            return names
        for n, tables in more.items():
            names[n] = names.get(n, set()) | tables


def _table_writes(scope: ast.AST, aliases: dict):
    """(line, the tables it may write, the method) of each write to σ or a
    set in `scope`."""
    aliases = _table_aliases(scope, aliases)
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr in TABLE_MUTATORS:
            on = node.func.value
            if isinstance(on, ast.Name) and on.id in ("dict", "set") and node.args:
                tables = _tables_of(node.args[0], aliases)
                if tables:
                    yield node.lineno, tables, f"{on.id}.{node.func.attr}"
            elif _tables_of(on, aliases):
                yield node.lineno, _tables_of(on, aliases), node.func.attr
        elif isinstance(node, ast.AugAssign) and _tables_of(node.target, aliases):
            yield node.lineno, _tables_of(node.target, aliases), "augmented assignment"
        elif isinstance(node, (ast.Assign, ast.Delete)):
            for t in node.targets:
                if isinstance(t, ast.Subscript) and _tables_of(t.value, aliases):
                    yield node.lineno, _tables_of(t.value, aliases), \
                        "__delitem__" if isinstance(node, ast.Delete) else "__setitem__"


def _table_write_sites():
    """(module, function or class.method, line, tables, method) of each
    write to σ or a set in the package.  In the methods of the logging
    classes, ``self`` is the table."""
    logging = {cls.__name__: {name for name, c in LOGGING.items() if c is cls}
               for cls in LOGGING.values()}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            scopes = [(getattr(top, "name", "<module>"), top, {})] \
                if not isinstance(top, ast.ClassDef) else \
                [(f"{top.name}.{m.name}", m, {"self": logging.get(top.name, set())})
                 for m in top.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for owner, scope, aliases in scopes:
                for line, tables, method in _table_writes(scope, aliases):
                    yield module, owner, line, tables, method


def test_only_the_solver_the_reanalysis_and_pruning_write_sigma_and_the_sets():
    writers = {}  # (module, function or class) -> the lines that write
    for module, owner, line, _, _ in _table_write_sites():
        writer = (module, owner.partition(".")[0])
        writers.setdefault(writer if writer in TABLE_WRITERS else (module, owner),
                           []).append(line)
    assert not {m for m, _ in writers} & {"postproc.py", "journal.py", "cli.py"}, writers
    assert set(writers) == TABLE_WRITERS, writers


def test_sigma_and_the_sets_are_written_only_through_the_methods_that_log():
    """Outside the logging classes, every write to σ, stable or point calls
    a method that `Values` or `Members` overrides to log: no ``update``,
    ``setdefault``, ``popitem``, ``clear`` or ``del`` of σ, no ``update``,
    ``intersection_update``, ``symmetric_difference_update``, ``remove``
    or augmented assignment of a set, and no `dict` or `set` method called
    on a table directly.  A name bound by `getattr` may be any table: its
    method passes if one of them logs it.  (The classes make the other
    mutators raise, which this finds before a run reaches them.)"""
    logging = {cls.__name__ for cls in LOGGING.values()}
    problems = [f"{module}:{line} {method} of {sorted(tables)}"
                for module, owner, line, tables, method in _table_write_sites()
                if owner.partition(".")[0] not in logging
                and not any(vars(LOGGING[t]).get(method) not in (None, tdsolver._unlogged)
                            for t in tables)]
    assert problems == []

