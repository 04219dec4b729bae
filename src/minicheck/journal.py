"""Records: the one encoding of a persisted `cli.Session`.

A record is the difference between two states of a session.  A state dir
holds a base, the record that turns the empty session into the saved one,
and a journal beside it: a sequence of records, each the difference between
the state a reanalysis left and the state before it.  The state on disk is
the empty session with the base and then every record of the journal
replayed in order, all by `replay`, so every row is checked by the same
code however it was written.

A reanalysis keeps what it began from (`tables`): the session's rows, which
the run replaces, and the solver's counters; each table of the solver,
which the run mutates, logs the rows it writes, as they were.  The save
compares the new session, read in place, with them and writes only the
changed and the removed rows; a base is the difference from `EMPTY`.
The solver's tables and their rows are `tdsolver`'s (`tdsolver.tables`,
`state_to_json`, `state_from_json`); the rows of the digests, node ids,
access records and scalars are this module's, compared by equality; an
access record row's producer unknown is encoded (`consys.unknown_key`)
only on the rows a record holds.

A record is a JSON object: "solver", the solver section, and "put" and
"gone", the session's rows that changed, by table and key, and the keys of
those that went.
A journal record is one line, ``<sha256 of the payload> <payload>\\n``,
whose payload also names the base (`Image.base`) and the record it follows
(`Image.tail`, the base's id for the first record).  A last line without
its newline is a torn record: the save that wrote it never completed, so it
never committed and is not replayed.  The base's framing, a first line with
the format and a checksum, is `cli`'s.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import tdsolver
from .consys import unknown_from_json, unknown_key
from .domains import Access, access_from_json, access_to_json
from .minic.cfg import NodeTableError
from .postproc import Warning

SESSION_TABLES = ("functions", "assign", "accesses", "scalars")

# The tables of the empty session: every row of a record against it is new.
EMPTY: Dict[str, dict] = {}

_dumps = functools.partial(json.dumps, separators=(",", ":"))


@dataclass
class Image:
    """Where on disk one session is: the base's id and size, the end of the
    last record replayed or written (0 when there is none) and that
    record's id (`base` when there is none)."""

    base: str
    base_size: int
    end: int
    tail: str


def tables(session, solver: Optional[dict]) -> Dict[str, object]:
    """The persisted data of `session` as tables of rows, and `solver`, what
    `tdsolver.tables` returned.  The other rows share what the session holds."""
    store, digests, asg = session.store, session.digests, session.assignment
    return {"solver": solver,
            "functions": digests["functions"],
            "assign": asg.assign,
            "accesses": {(g, u): records for u, rows in store.accesses.items()
                         for g, records in rows.items()},
            "scalars": {"init": digests["init"], "globals": digests["globals"],
                        "counter": asg.counter, "warnings": store.warnings}}


def members(then: dict, session) -> Iterator[Tuple[str, object]]:
    """The record that turns the tables `then` into `session`, which is read
    in place, as (member, JSON value) pairs in the form `write_json` writes.
    Rows are written in a fixed order, so equal changes give equal records."""
    yield "solver", tdsolver.state_to_json(then.get("solver", {}), session.state)
    now = tables(session, None)  # the solver's rows are read off session.state
    put: Dict[str, list] = {}
    gone: Dict[str, list] = {}
    for name in SESSION_TABLES:  # no row is None
        old, rows = then.get(name, {}), now[name]
        changed = {k: v for k, v in rows.items() if old.get(k) != v}
        went = set(old).difference(rows)
        if name == "accesses":  # written by global, then the producer's key
            changed = {(g, unknown_key(u)): v for (g, u), v in changed.items()}
            went = {(g, unknown_key(u)) for g, u in went}
        if changed:
            put[name] = out = {}
            for k in sorted(changed):  # a tuple is written as an array
                if name == "accesses":
                    out.setdefault(k[0], {})[k[1]] = [
                        access_to_json(r) for r in sorted(changed[k], key=Access.sort_key)]
                elif name == "scalars" and k == "warnings":
                    out[k] = [w.to_json() for w in changed[k]]
                else:
                    out[k] = changed[k]
        if went:
            gone[name] = sorted(went)
    yield "put", put
    yield "gone", gone


def write_json(write: Callable[[str], None], doc, opened: bool = False) -> None:
    """Write `doc` as ``json.dumps(doc, separators=(",", ":"))`` would.  An
    object may also be an iterator of (key, value) pairs and an array a
    `map`; these are written as they are produced, so their whole encoding
    is never held.  With `opened`, the opening brace of the top object and
    the members before it are already written."""
    if isinstance(doc, map):
        write("[")
        sep = ""
        for chunk in iter(lambda: list(islice(doc, 512)), []):
            write(sep + _dumps(chunk)[1:-1])
            sep = ","
        write("]")
    elif isinstance(doc, Iterator):
        if not opened:
            write("{")
        for i, (key, value) in enumerate(doc):
            write(f"{',' if i else ''}{_dumps(key)}:")
            write_json(write, value)
        write("}")
    else:
        write(_dumps(doc))


def _built(doc):
    """`doc` with what `write_json` writes as it is produced built whole."""
    if isinstance(doc, map):
        return list(doc)
    if isinstance(doc, Iterator):
        return {key: _built(value) for key, value in doc}
    return doc


def record(then: dict, session, base: str, prev: str) -> Optional[Tuple[bytes, str]]:
    """The framed journal record that turns the tables `then` into
    `session`, and its id; None if they do not differ."""
    doc = _built(members(then, session))
    solver = doc["solver"]
    if not (solver["put"] or solver["gone"] or doc["put"] or doc["gone"]):
        return None
    payload = _dumps({"base": base, "prev": prev, **doc}).encode()
    digest = hashlib.sha256(payload).hexdigest()
    return digest.encode() + b" " + payload + b"\n", digest


def records(data: bytes) -> List[Tuple[dict, str, int]]:
    """The complete records of a journal's bytes: each payload, its id and
    the offset where it ends.  A torn last record is left out; ValueError
    for a complete one that fails its checksum or does not parse."""
    out = []
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            return out
        digest, _, payload = data[pos:nl].partition(b" ")
        if hashlib.sha256(payload).hexdigest().encode() != digest:
            raise ValueError(f"journal record at byte {pos} fails its checksum")
        out.append((json.loads(payload), digest.decode(), nl + 1))
        pos = nl + 1


def replay(session, doc: dict) -> None:
    """Apply the record `doc` to `session`, in place.  ValueError for a
    table it does not know, for a digest row of the wrong shape and for a
    node id counter that is not an integer above every node id,
    NodeTableError for node ids that fit no CFG: ids that are not integers,
    or fewer than the entry and the return node that every CFG has."""
    store, digests, asg = session.store, session.digests, session.assignment
    put, gone = doc["put"], doc["gone"]
    unknown = sorted(set(put).union(gone).difference(SESSION_TABLES))
    if unknown:
        raise ValueError(f"unknown session table {unknown[0]!r}")
    counters = tdsolver.state_from_json(session.state, doc["solver"])
    if counters is not None:
        session.state.rhs_evals = counters["rhs_evals"]
        session.state.destabilizations = counters["destabilizations"]
    for k in gone.get("functions", ()):
        del digests["functions"][k]
    for k, pair in put.get("functions", {}).items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"malformed digests of function {k!r}")
        digests["functions"][k] = pair
    for k in gone.get("assign", ()):
        del asg.assign[k]
    for k, ids in put.get("assign", {}).items():
        if len(ids) < 2 or not all(type(i) is int for i in ids):
            problem = f"{len(ids)} ids for at least 2 nodes" if len(ids) < 2 else \
                "ids that are not integers"
            raise NodeTableError(f"state bundle node ids of function {k!r} do not fit any "
                                 f"CFG ({problem}); delete the state dir to reanalyze from "
                                 "scratch")
        asg.assign[k] = tuple(ids)
    contexts: Dict[str, object] = {}  # shared by the producers of the record
    for g, p in gone.get("accesses", ()):
        u = unknown_from_json(json.loads(p), contexts)
        rows = store.accesses[u]
        del rows[g]
        if not rows:
            del store.accesses[u]
    for g, producers in put.get("accesses", {}).items():
        for p, rs in producers.items():
            u = unknown_from_json(json.loads(p), contexts)
            store.accesses.setdefault(u, {})[g] = frozenset(access_from_json(r) for r in rs)
    for k, v in put.get("scalars", {}).items():
        if k == "warnings":
            store.warnings = [Warning(w["id"], w["kind"], w["message"],
                                      tuple((loc["file"], loc["line"], loc["col"])
                                            for loc in w["locations"]),
                                      tuple(w["provenance"])) for w in v]
        elif k == "init":
            if not isinstance(v, str):
                raise ValueError("malformed digest of the global initializers")
            digests[k] = v
        elif k == "globals":
            if not isinstance(v, list) or not all(isinstance(g, str) for g in v):
                raise ValueError("malformed names of the globals")
            digests[k] = v
        elif k == "counter":
            asg.counter = v
        else:
            raise ValueError(f"unknown scalar {k!r}")
    # Fresh node ids are counted up from the counter, so it lies above them all.
    if type(asg.counter) is not int or \
            asg.counter <= max((max(ids) for ids in asg.assign.values()), default=-1):
        raise ValueError(f"node id counter {asg.counter!r} is not an integer above every "
                         "node id")
