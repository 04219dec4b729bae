"""Known-answer checks for minicheck outputs on the generated corpus.

The expected warnings are read off the MiniC source text by a line scan
that shares no code with the analyzer.  The corpus writes globals only
under a lock and reads them only without one, so every global with both a
locked write and an unlocked read has exactly one race warning, citing
every line of a function body that touches it, and nothing else is
reported.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

_GLOBAL_DECL = re.compile(r"^int (\w+) = -?\d+;$")
_FN_START = re.compile(r"^\w+\*? (\w+)\(.*\) \{$")
_LOCK = re.compile(r"^\s*(un)?lock\((\w+)\);$")
_ASSIGN = re.compile(r"^\s*(\w+) = (.*);$")
_IDENT = re.compile(r"[A-Za-z_]\w*")
_GLOBAL_IN_MESSAGE = re.compile(r"global '(\w+)'")


def expected_races(source: str) -> Dict[str, List[int]]:
    """Global name -> sorted source lines of its accesses, for every global
    that is written under a lock and read without one."""
    globals_ = set()
    locked_writes, unlocked_reads = set(), set()
    lines: Dict[str, List[int]] = {}
    fn = None
    held: set = set()
    for lineno, line in enumerate(source.split("\n"), start=1):
        if fn is None:
            m = _GLOBAL_DECL.match(line)
            if m:
                globals_.add(m.group(1))
            m = _FN_START.match(line)
            if m:
                fn, held = m.group(1), set()
            continue
        if line == "}":
            fn = None
            continue
        m = _LOCK.match(line)
        if m:
            (held.discard if m.group(1) else held.add)(m.group(2))
            continue
        m = _ASSIGN.match(line)
        target, rhs = (m.group(1), m.group(2)) if m else (None, line)
        if target in globals_:
            if not held:
                raise ValueError(f"line {lineno}: unlocked write to {target}; "
                                 "the expected-race rule does not cover it")
            locked_writes.add(target)
            lines.setdefault(target, []).append(lineno)
        for name in set(_IDENT.findall(rhs)) & globals_:
            if held:
                raise ValueError(f"line {lineno}: locked read of {name}; "
                                 "the expected-race rule does not cover it")
            unlocked_reads.add(name)
            lines.setdefault(name, []).append(lineno)
    return {g: sorted(set(lines[g])) for g in sorted(locked_writes & unlocked_reads)}


def check_warnings(warnings, expected: Dict[str, List[int]], filename: str) -> List[str]:
    """Warnings must be exactly one race per expected global, located at
    exactly the lines that access it."""
    if not isinstance(warnings, list):
        return [f"warnings are not a list: {type(warnings).__name__}"]
    problems = []
    seen: Dict[str, List[int]] = {}
    for w in warnings:
        if not isinstance(w, dict) or w.get("kind") != "race":
            problems.append(f"unexpected warning {w!r:.200}")
            continue
        m = _GLOBAL_IN_MESSAGE.search(str(w.get("message", "")))
        if m is None:
            problems.append(f"race warning names no global: {w.get('message')!r}")
            continue
        glob = m.group(1)
        if glob in seen:
            problems.append(f"two race warnings on {glob}")
        locs = w.get("locations") or []
        if any(loc.get("file") != filename for loc in locs):
            problems.append(f"race on {glob} cites a file other than {filename}")
        seen[glob] = sorted(loc.get("line") for loc in locs)
    for glob in sorted(set(expected) - set(seen)):
        problems.append(f"missing race warning on {glob}")
    for glob in sorted(set(seen) - set(expected)):
        problems.append(f"unexpected race warning on {glob}")
    for glob in sorted(set(seen) & set(expected)):
        if seen[glob] != expected[glob]:
            problems.append(f"race on {glob} cites lines {seen[glob][:8]}..., "
                            f"expected {expected[glob][:8]}...")
    return problems


def check_analyze(code: int, stdout: str, expected, filename: str) -> List[str]:
    """`minicheck analyze` prints the warning list."""
    if code != 0:
        return [f"analyze exited {code}"]
    doc, problems = parse_json(stdout)
    return problems or check_warnings(doc, expected, filename)


def check_diff(payload, expected, filename: str,
               edited: Optional[str] = None) -> List[str]:
    """A reanalyze diff: nothing added or removed, every expected warning
    kept, and (with --explain-diff) exactly the edited function changed."""
    if not isinstance(payload, dict):
        return [f"diff is not an object: {payload!r:.200}"]
    problems = []
    for key in ("added", "removed"):
        if payload.get(key) != []:
            problems.append(f"diff {key} is {payload.get(key)!r:.200}, expected []")
    problems += check_warnings(payload.get("kept"), expected, filename)
    if edited is not None:
        changes = payload.get("changes") or {}
        if changes.get("changed") != [edited]:
            problems.append(f"changed functions {changes.get('changed')!r:.200}, "
                            f"expected [{edited!r}]")
        for key in ("header_changed", "added", "removed"):
            if changes.get(key) != []:
                problems.append(f"explain-diff {key} is {changes.get(key)!r:.200}")
    return problems


def check_reanalyze(code: int, stdout: str, expected, filename: str,
                    edited: str) -> List[str]:
    """`minicheck reanalyze --explain-diff` prints the diff plus the change set."""
    if code != 0:
        return [f"reanalyze exited {code}"]
    doc, problems = parse_json(stdout)
    return problems or check_diff(doc, expected, filename, edited)


def check_serve_reanalyze(response: str, rid: int, expected, filename: str) -> List[str]:
    """One `serve` response line to a reanalyze request."""
    doc, problems = parse_json(response)
    if problems:
        return problems
    if not isinstance(doc, dict) or doc.get("id") != rid:
        return [f"response does not answer request {rid}: {response[:200]!r}"]
    if "error" in doc:
        return [f"error response: {doc['error']!r:.200}"]
    result = doc.get("result")
    if isinstance(result, dict) and "fallback" in result:
        return [f"server fell back to {result['fallback']!r}"]
    return check_diff(result, expected, filename)


def check_compare(code: int, stdout: str) -> List[str]:
    """The incremental state is never less sound than a from-scratch run:
    no shared program point is finer than, or incomparable to, its
    from-scratch value."""
    if code != 0:
        return [f"compare exited {code}"]
    doc, problems = parse_json(stdout)
    if problems:
        return problems
    if not isinstance(doc, dict) or not doc.get("total"):
        return [f"compare shares no program points: {stdout[:200]!r}"]
    return [f"compare reports {key} = {doc.get(key)!r}"
            for key in ("finer", "incomparable") if doc.get(key) != 0]


def parse_json(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"malformed output: {exc}"]
