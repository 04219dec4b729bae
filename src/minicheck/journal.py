"""Delta records: a reanalysis persisted as the rows it changed.

A state dir holds a base, a full snapshot of one `cli.Session`, and a
journal beside it: a sequence of records, each the difference between the
state a reanalysis left and the state before it.  The state on disk is the
base with every record replayed in order.

What a record holds is found without any bookkeeping in the solver or the
pipeline.  A session that was loaded or saved keeps an `Image` of what is on
disk: its persisted data as tables of rows (`tables`).  At the next save the
session's tables are diffed against the image's: σ compares values by
identity (a value the run did not touch is still the object it was), and
every other row by equality, each map row as the tuple of its members, in
order, since their order drives destabilization.  Only the changed and the
removed rows are written.

A record is one line, ``<sha256 of the payload> <payload>\\n``, whose payload
is a JSON object that names the base (`Image.base`) and the record it
follows (`Image.tail`, the base's id for the first record).  A last line
without its newline is a torn record: the save that wrote it never
completed, so it never committed and is not replayed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .consys import sort_key, unknown_from_json, unknown_to_json
from .domains import Access, access_from_json, access_to_json, value_from_json, value_to_json
from .postproc import Warning

MAPS = ("infl", "side_dep", "side_infl", "stale")  # unknown -> its members, in order
SETS = ("stable", "point")
UNKNOWN_KEYED = ("sigma",) + MAPS + SETS

_ABSENT = object()


@dataclass
class Image:
    """What is on disk for one session: the base's id and size, the end of
    the last record replayed or written (0 when there is none), that
    record's id (`base` when there is none) and the persisted tables."""

    base: str
    base_size: int
    end: int
    tail: str
    tables: Dict[str, dict]


def tables(session) -> Dict[str, object]:
    """The persisted data of `session` as tables of rows.  The rows share
    what the session holds and never mutates (σ's values, digests, node
    ids, access records, warnings) and copy what it mutates in place."""
    st, store, digests, asg = session.state, session.store, session.digests, session.assignment
    out: Dict[str, object] = {"sigma": dict(st.sigma), "stable": set(st.stable),
                              "point": set(st.point)}
    for name in MAPS:
        out[name] = {u: tuple(members) for u, members in getattr(st, name).items() if members}
    out["functions"] = dict(digests["functions"])
    out["assign"] = dict(asg.assign)
    out["accesses"] = {(g, p): records for g, producers in store.accesses.items()
                       for p, records in producers.items()}
    out["scalars"] = {"init": digests["init"], "globals": digests["globals"],
                      "counter": asg.counter, "rhs_evals": st.rhs_evals,
                      "destabilizations": st.destabilizations,
                      "warnings": tuple(store.warnings)}
    return out


def _changes(then: dict, now: dict) -> Tuple[Dict[str, list], Dict[str, list]]:
    """Per table, the keys of the rows of `now` that are new or differ from
    `then`, and the keys of the rows of `then` that `now` lacks."""
    put: Dict[str, list] = {}
    gone: Dict[str, list] = {}
    for name, rows in now.items():
        old = then[name]
        if name in SETS:
            put[name], gone[name] = list(rows - old), list(old - rows)
            continue
        if name == "sigma":
            put[name] = [k for k, v in rows.items() if old.get(k, _ABSENT) is not v]
        else:
            put[name] = [k for k, v in rows.items() if old.get(k, _ABSENT) != v]
        # a set built from a dict, and its difference with one, reuse the
        # keys' stored hashes: no unknown's __hash__ runs
        gone[name] = list(set(old).difference(rows))
    return put, gone


def record(then: dict, now: dict, base: str, prev: str) -> Optional[Tuple[bytes, str]]:
    """The framed record that turns the tables `then` into `now`, and its
    id; None if they do not differ.  Rows are written in a fixed order, so
    equal changes give equal records."""
    put, gone = _changes(then, now)
    if not any(put.values()) and not any(gone.values()):
        return None
    mentioned = set()
    for name in UNKNOWN_KEYED:
        mentioned.update(put[name], gone[name])
    for name in MAPS:
        for u in put[name]:
            mentioned.update(now[name][u])
    unknowns = sorted(mentioned, key=sort_key)
    index = {u: i for i, u in enumerate(unknowns)}
    values: Dict[object, int] = {}
    rows = {
        "sigma": [[i, values.setdefault(now["sigma"][unknowns[i]], len(values))]
                  for i in sorted(index[u] for u in put["sigma"])],
        "functions": [[k, now["functions"][k]] for k in sorted(put["functions"])],
        "assign": [[k, list(now["assign"][k])] for k in sorted(put["assign"])],
        "accesses": [[list(k), [access_to_json(r) for r in
                                sorted(now["accesses"][k], key=Access.sort_key)]]
                     for k in sorted(put["accesses"])],
        "scalars": [[k, [w.to_json() for w in now["scalars"][k]] if k == "warnings"
                     else now["scalars"][k]] for k in sorted(put["scalars"])],
    }
    for name in MAPS:
        rows[name] = sorted([index[u], [index[v] for v in now[name][u]]] for u in put[name])
    for name in SETS:
        rows[name] = sorted(index[u] for u in put[name])
    removed = {name: sorted(index[u] for u in gone[name]) for name in UNKNOWN_KEYED}
    removed.update({name: sorted(gone[name]) for name in ("functions", "assign")})
    removed["accesses"] = sorted(list(k) for k in gone["accesses"])
    doc = {"base": base, "prev": prev,
           "unknowns": [unknown_to_json(u) for u in unknowns],
           "values": [value_to_json(v) for v in values],
           "put": {name: r for name, r in rows.items() if r},
           "gone": {name: r for name, r in removed.items() if r}}
    payload = json.dumps(doc, separators=(",", ":")).encode()
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
    """Apply the record `doc` to `session`, in place."""
    st, store, digests, asg = session.state, session.store, session.digests, session.assignment
    unknowns = [unknown_from_json(d) for d in doc["unknowns"]]
    values = [value_from_json(d) for d in doc["values"]]
    put, gone = doc["put"], doc["gone"]
    for i in gone.get("sigma", ()):
        del st.sigma[unknowns[i]]
    for i, v in put.get("sigma", ()):
        st.sigma[unknowns[i]] = values[v]
    for name in MAPS:
        m = getattr(st, name)
        for i in gone.get(name, ()):
            del m[unknowns[i]]
        for i, members in put.get(name, ()):
            m[unknowns[i]] = dict.fromkeys(unknowns[j] for j in members)
    for name in SETS:
        s = getattr(st, name)
        s.difference_update(unknowns[i] for i in gone.get(name, ()))
        s.update(unknowns[i] for i in put.get(name, ()))
    for k in gone.get("functions", ()):
        del digests["functions"][k]
    digests["functions"].update(put.get("functions", ()))
    for k in gone.get("assign", ()):
        del asg.assign[k]
    asg.assign.update((k, tuple(ids)) for k, ids in put.get("assign", ()))
    for g, p in gone.get("accesses", ()):
        producers = store.accesses[g]
        del producers[p]
        if not producers:
            del store.accesses[g]
    for (g, p), rs in put.get("accesses", ()):
        store.accesses.setdefault(g, {})[p] = frozenset(access_from_json(r) for r in rs)
    for k, v in put.get("scalars", ()):
        if k == "warnings":
            store.warnings = [Warning.from_json(w) for w in v]
        elif k in ("init", "globals"):
            digests[k] = v
        elif k == "counter":
            asg.counter = v
        else:  # the solver's counters
            setattr(st, k, v)
