"""The state dir as a base plus a journal of delta records: what each save
writes, that replaying the journal gives the state the writer held, and
what a torn, corrupt or stale record does."""

import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicheck import cli
from minicheck.consys import NodeCtx
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence

from support import persisted, producers
from test_declaration_edits import edits, templates

BASE, JOURNAL = cli.BUNDLE_NAME, cli.JOURNAL_NAME


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def reanalyze(sd, src, text, opts):
    """A CLI reanalysis of `text`: the session it saved and what it wrote."""
    write(src, text)
    result = cli.run_reanalysis(cli.load_bundle(sd, opts), text, src, opts)
    return result.session, cli.save_bundle(sd, result.session, opts)


def size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _corpus_versions(n_edits, n_functions=24):
    spec = CorpusSpec(n_functions=n_functions, seed=7)
    return [corpus_source(spec)] + [corpus_source(s) for s in edit_sequence(spec, n_edits, 5)]


# -- what each save writes ----------------------------------------------------------


# What the reanalyses of twelve cumulative edits of a 24-function corpus
# write (records of 2-4 KB, a base of 51 KB): the fourth and the ninth
# record would have passed a quarter of the base.
KINDS = ["delta"] * 3 + ["full"] + ["delta"] * 4 + ["full"] + ["delta"] * 3


def test_what_each_save_persists(tmp_path):
    """An analyze writes a full base.  Each reanalysis appends a record until
    the journal would pass a quarter of the base; that save compacts into a
    full base and empties the journal.  A server whose image a CLI run
    outdated writes a full base too, so the last writer wins."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd, stats=True)
    versions = _corpus_versions(15)
    write(src, versions[0])
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_analyze(src, opts, out, err) == 0
    assert json.loads(err.getvalue())["persisted"] == {"kind": "full", "bytes": size(f"{sd}/{BASE}")}
    assert not os.path.exists(f"{sd}/{JOURNAL}")
    kinds = []
    for text in versions[1:13]:
        write(src, text)
        out, err = io.StringIO(), io.StringIO()
        journal_before = size(f"{sd}/{JOURNAL}")
        assert cli.cmd_reanalyze(src, opts, out, err) == 0
        written = json.loads(err.getvalue())["persisted"]
        kinds.append(written["kind"])
        if written["kind"] == "delta":
            assert size(f"{sd}/{JOURNAL}") == journal_before + written["bytes"] > 0
            assert size(f"{sd}/{JOURNAL}") * cli.COMPACTION_RATIO <= size(f"{sd}/{BASE}")
        else:
            assert written["bytes"] == size(f"{sd}/{BASE}")
            assert not os.path.exists(f"{sd}/{JOURNAL}")
            compacted = cli.load_bundle(sd, opts)
    assert kinds == KINDS
    # after a compaction base plus journal stay within 1.25 times a full bundle
    full_dir = str(tmp_path / "full")
    fresh = cli.load_bundle(sd, opts)
    cli.save_bundle(full_dir, cli.Session(fresh.digests, fresh.assignment, fresh.state,
                                          fresh.store), opts)
    assert size(f"{sd}/{BASE}") + size(f"{sd}/{JOURNAL}") <= 1.25 * size(f"{full_dir}/{BASE}")
    assert persisted(compacted) != persisted(fresh)  # records followed the compaction

    def stats(server, text):
        write(src, text)
        return server.reanalyze(src)["stats"]["persisted"]["kind"]

    server = cli.Server(opts)
    assert stats(server, versions[13]) == "delta"
    reanalyze(sd, src, versions[14], opts)  # a CLI run the server does not see
    assert stats(server, versions[15]) == "full"
    assert persisted(cli.load_bundle(sd, opts)) == persisted(server.session)


def test_a_second_run_without_a_save_writes_a_full_base(tmp_path):
    """Only the reanalysis of a loaded or saved session keeps what it began
    from; the save of a session that was reanalyzed twice since writes a
    full base, which reloads to the writer's state."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    versions = _corpus_versions(2)
    write(src, versions[0])
    assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
    once = cli.run_reanalysis(cli.load_bundle(sd, opts), versions[1], src, opts).session
    assert once.then is not None
    twice = cli.run_reanalysis(once, versions[2], src, opts).session
    assert twice.image is None and twice.then is None
    written = cli.save_bundle(sd, twice, opts)
    assert written == {"kind": "full", "bytes": size(f"{sd}/{BASE}")}
    assert persisted(cli.load_bundle(sd, opts)) == persisted(twice)


def test_a_loaded_session_shares_one_context_object_per_context(tmp_path):
    """A record decodes each distinct calling context once: the unknowns of
    a loaded analyze in equal contexts hold the same `Context` object."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    write(src, _corpus_versions(0, n_functions=40)[0])
    assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
    state = cli.load_bundle(sd, opts).state
    unknowns = set(state.sigma) | state.stable
    for m in (state.infl, state.side_dep, state.side_infl):
        unknowns.update(m, *m.values())
    objects = {}
    for u in unknowns:
        if isinstance(u, NodeCtx):
            objects.setdefault(u.ctx, set()).add(id(u.ctx))
    assert len(objects) > 1 and all(len(ids) == 1 for ids in objects.values())


# -- replay gives the writer's state -------------------------------------------------


@st.composite
def histories(draw):
    """Program versions, an analyzed one and edits of it, each step run by
    the CLI (False) or by one long-lived server (True)."""
    if draw(st.booleans()):
        spec = CorpusSpec(n_functions=40, seed=draw(st.integers(0, 50)))
        versions = [corpus_source(spec)] + [
            corpus_source(s) for s in edit_sequence(spec, draw(st.integers(1, 8)),
                                                    draw(st.integers(0, 1000)))]
    else:
        t = draw(templates())
        versions = [t]
        for _ in range(draw(st.integers(1, 4))):
            versions.append(draw(edits(versions[-1])))
        versions = [v.source() for v in versions]
    return versions, [draw(st.booleans()) for _ in versions[1:]]


@settings(max_examples=25, deadline=None)
@given(history=histories())
def test_replaying_the_journal_gives_the_state_the_writer_held(tmp_path_factory, history):
    """After every step of a history that alternates CLI runs and a server
    on one state dir, loading the state dir gives what the writer held in
    memory, which is also what a full save of it gives."""
    versions, by_server = history
    tmp = tmp_path_factory.mktemp("history")
    src, sd = str(tmp / "prog.mc"), str(tmp / "state")
    opts = cli.Options(state_dir=sd)
    write(src, versions[0])
    assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
    server = cli.Server(opts)
    for step, (text, serve) in enumerate(zip(versions[1:], by_server)):
        if serve:
            write(src, text)
            server.reanalyze(src)
            held = server.session
        else:
            held, _ = reanalyze(sd, src, text, opts)
        loaded = cli.load_bundle(sd, opts)
        assert persisted(loaded) == persisted(held), step
        assert producers(loaded.state) == producers(held.state), step
        full_dir = str(tmp / f"full-{step}")
        cli.save_bundle(full_dir, cli.Session(held.digests, held.assignment, held.state,
                                              held.store), opts)
        assert persisted(cli.load_bundle(full_dir, cli.Options(state_dir=full_dir))) == \
            persisted(held), step


# -- torn, corrupt and stale records ---------------------------------------------------


def _two_records(tmp_path):
    """An analyzed corpus and two CLI reanalyses, each one record; returns
    the source path, the state dir and the state after each reanalysis."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    versions = _corpus_versions(2)
    write(src, versions[0])
    assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
    states = []
    for text in versions[1:]:
        session, written = reanalyze(sd, src, text, opts)
        assert written["kind"] == "delta" and written["bytes"] > 0
        states.append(persisted(session))
    return src, sd, states


def test_a_torn_last_record_loads_the_state_before_it(tmp_path):
    src, sd, states = _two_records(tmp_path)
    with open(f"{sd}/{JOURNAL}", "rb") as f:
        data = f.read()
    opts = cli.Options(state_dir=sd)
    first_end = data.index(b"\n") + 1
    for cut in (first_end + 10, len(data) - 1):  # mid-record and just its newline
        with open(f"{sd}/{JOURNAL}", "wb") as f:
            f.write(data[:cut])
        assert persisted(cli.load_bundle(sd, opts)) == states[0]
    # the next save cannot append after the torn bytes: it writes a full base
    write(src, _corpus_versions(3)[3])
    out, err = io.StringIO(), io.StringIO()
    assert cli.cmd_reanalyze(src, cli.Options(state_dir=sd, stats=True), out, err) == 0
    assert json.loads(err.getvalue())["persisted"]["kind"] == "full"
    assert not os.path.exists(f"{sd}/{JOURNAL}")


def test_a_corrupt_record_before_the_last_exits_two(tmp_path):
    src, sd, _ = _two_records(tmp_path)
    with open(f"{sd}/{JOURNAL}", "rb") as f:
        data = bytearray(f.read())
    at = data.index(b'"sigma":[[') + len(b'"sigma":[[')
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10  # still valid JSON
    with open(f"{sd}/{JOURNAL}", "wb") as f:
        f.write(data)
    opts = cli.Options(state_dir=sd)
    for command in (cli.cmd_reanalyze, cli.cmd_compare):
        out, err = io.StringIO(), io.StringIO()
        assert command(src, opts, out, err) == 2 and out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith(f"error: state bundle {sd}/{JOURNAL} is unreadable or "
                                  "corrupt (ValueError: journal record at byte 0 fails its "
                                  "checksum)")
        assert message.count("\n") == 1 and len(message) < 500
    out = io.StringIO()
    request = json.dumps({"id": 1, "method": "reanalyze", "path": src})
    cli.Server(opts).serve(io.StringIO(request + "\n"), out)
    assert "fails its checksum" in json.loads(out.getvalue())["error"]


def test_records_of_a_replaced_base_are_ignored(tmp_path):
    """A crash after a full base replaced the old one, before the journal
    was emptied, leaves records that name the old base."""
    src, sd, _ = _two_records(tmp_path)
    with open(f"{sd}/{JOURNAL}", "rb") as f:
        stale = f.read()
    opts = cli.Options(state_dir=sd)
    versions = _corpus_versions(3)
    write(src, versions[3])
    assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
    analyzed = persisted(cli.load_bundle(sd, opts))
    with open(f"{sd}/{JOURNAL}", "wb") as f:
        f.write(stale)
    assert persisted(cli.load_bundle(sd, opts)) == analyzed
    _, written = reanalyze(sd, src, versions[1], opts)
    assert written["kind"] == "full"  # the stale records are not the session's tail


@pytest.mark.parametrize("fraction", [0.5, 1.0])
def test_a_record_that_fails_its_checksum_at_the_end_is_not_torn(tmp_path, fraction):
    """A complete last record is committed: a flipped byte in it is an
    error, not a torn write."""
    src, sd, _ = _two_records(tmp_path)
    with open(f"{sd}/{JOURNAL}", "rb") as f:
        data = bytearray(f.read())
    at = data.index(b"\n") + int((len(data) - data.index(b"\n")) * fraction) - 2
    data[at] ^= 1
    with open(f"{sd}/{JOURNAL}", "wb") as f:
        f.write(data)
    with pytest.raises(cli.CliError, match="fails its checksum"):
        cli.load_bundle(sd, cli.Options(state_dir=sd))


# -- every row is checked by the one decoder -------------------------------------------


def _append_record(sd, opts, put, solver=None):
    """Append to the journal of `sd` a checksummed record that follows its
    last one and puts the session rows `put` and the solver section
    `solver` (by default an empty one)."""
    image = cli.load_bundle(sd, opts).image
    solver = solver or {"unknowns": [], "values": [], "put": {}, "gone": {}}
    payload = json.dumps({"base": image.base, "prev": image.tail, "solver": solver,
                          "put": put, "gone": {}}, separators=(",", ":")).encode()
    with open(f"{sd}/{JOURNAL}", "ab") as f:
        f.write(hashlib.sha256(payload).hexdigest().encode() + b" " + payload + b"\n")


def _rewrite_base(sd, change):
    """Apply `change` to the document of the base of `sd` and write it back
    with a valid checksum."""
    with open(f"{sd}/{BASE}") as f:
        doc = json.load(f)
    change(doc)
    head = {k: doc.pop(k) for k in ("format", "created_at", "sha256")}
    body = json.dumps(doc, separators=(",", ":"))[1:] + "\n"
    head["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    write(f"{sd}/{BASE}", json.dumps(head, separators=(",", ":"))[:-1] + ",\n" + body)


def _without_f003(text):
    """`text` without the function f003 and its call in main."""
    blocks = [b for b in text.split("\n\n") if not b.startswith("int f003(")]
    return "\n\n".join(blocks).replace("  r = f003(0);\n", "")


@pytest.mark.parametrize("ids", [[], [5], ["3", "4"], [3, 4.5], [None, 4], [True, 4]])
def test_node_ids_in_a_record_that_fit_no_cfg_exit_two(tmp_path, ids):
    """A complete record whose node ids of f003 fit no CFG, too few or not
    integers, is refused as the same row in the base is, also when the
    source no longer has f003 and so never asks for its ids."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    text = _corpus_versions(0)[0]
    write(src, text)
    assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
    _append_record(sd, opts, {"assign": {"f003": ids}})
    write(src, _without_f003(text))
    problem = f"{len(ids)} ids for at least 2 nodes" if len(ids) < 2 else \
        "ids that are not integers"
    message = (f"state bundle node ids of function 'f003' do not fit any CFG ({problem}); "
               "delete the state dir to reanalyze from scratch")
    for command in (cli.cmd_reanalyze, cli.cmd_compare):
        out, err = io.StringIO(), io.StringIO()
        assert command(src, opts, out, err) == 2 and out.getvalue() == ""
        assert err.getvalue() == f"error: {message}\n"
    out = io.StringIO()
    request = json.dumps({"id": 1, "method": "reanalyze", "path": src})
    cli.Server(opts).serve(io.StringIO(request + "\n"), out)
    assert json.loads(out.getvalue()) == {"id": 1, "error": message}


def test_an_error_names_the_file_it_comes_from(tmp_path):
    """Names of the globals that are not names: in the base the error names
    the base, in a record the journal."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    write(src, _corpus_versions(0)[0])

    def bad_globals(doc):
        doc["put"]["scalars"]["globals"] = [1]

    for name in (BASE, JOURNAL):
        assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
        if name == BASE:
            _rewrite_base(sd, bad_globals)
        else:
            _append_record(sd, opts, {"scalars": {"globals": [1]}})
        assert os.path.exists(f"{sd}/{JOURNAL}") == (name == JOURNAL)
        out, err = io.StringIO(), io.StringIO()
        assert cli.cmd_reanalyze(src, opts, out, err) == 2
        assert err.getvalue() == (
            f"error: state bundle {sd}/{name} is unreadable or corrupt (ValueError: malformed "
            "names of the globals); delete the state dir to reanalyze from scratch\n")


@pytest.mark.parametrize("counter", [-5, "counter", 1.5, None, "at the last id"])
def test_a_node_id_counter_that_is_not_above_every_id_exits_two(tmp_path, counter):
    """Fresh node ids are counted up from the counter, so a counter that is
    not an integer above every id in use, in the base or in a record, is
    refused; a counter at the last id would hand it out again."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    write(src, _corpus_versions(0)[0])
    for name in (BASE, JOURNAL):
        assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
        session = cli.load_bundle(sd, opts)
        bad = counter
        if counter == "at the last id":
            bad = max(max(ids) for ids in session.assignment.assign.values())
            assert bad == session.assignment.counter - 1
        if name == BASE:
            _rewrite_base(sd, lambda doc: doc["put"]["scalars"].update(counter=bad))
        else:
            _append_record(sd, opts, {"scalars": {"counter": bad}})
        assert os.path.exists(f"{sd}/{JOURNAL}") == (name == JOURNAL)
        for command in (cli.cmd_reanalyze, cli.cmd_compare):
            out, err = io.StringIO(), io.StringIO()
            assert command(src, opts, out, err) == 2 and out.getvalue() == ""
            assert err.getvalue() == (
                f"error: state bundle {sd}/{name} is unreadable or corrupt (ValueError: node id "
                f"counter {bad!r} is not an integer above every node id); delete the state dir "
                "to reanalyze from scratch\n")


ROW_DAMAGE = {
    "index": "IndexError: list index out of range",
    "negative-index": "ValueError: a row of side_dep has a negative index",
    "negative-producer": "ValueError: a row of side_dep has a negative index",
    # a list reads a negative index from its end: refused in every table
    "negative-sigma": "ValueError: a row of sigma has a negative index",
    "negative-stable": "ValueError: a row of stable has a negative index",
    "negative-point": "ValueError: a row of point has a negative index",
    "negative-infl": "ValueError: a row of infl has a negative index",
    "negative-side_infl": "ValueError: a row of side_infl has a negative index",
    "negative-gone": "ValueError: a row of infl has a negative index",
    # a table that the state does not have (stale went in format 9)
    "unknown-solver-table": "ValueError: unknown solver table 'stale'",
    "unknown-session-table": "ValueError: unknown session table 'functionz'",
}

# the row that each negative-* damage of another table adds to a solver section
NEGATIVE_ROWS = {"sigma": [-1, -1], "stable": -1, "point": -1, "infl": [0, [-1]],
                 "side_infl": [-1, [0]]}


@pytest.mark.parametrize("damage", list(ROW_DAMAGE))
def test_a_contribution_out_of_range_or_of_another_domain_exits_two(tmp_path, damage):
    """A side_dep row names its target and its producers by unknown index:
    a producer one past the unknowns, a negative target or a negative
    producer, in the base or in a record, is refused; so is a row of any
    other table, or a key of a row that went, with a negative index, and a
    row of a solver or session table that does not exist."""
    src, sd = str(tmp_path / "prog.mc"), str(tmp_path / "state")
    opts = cli.Options(state_dir=sd)
    write(src, _corpus_versions(0)[0])
    g0, init = {"k": "global", "name": "g0"}, {"k": "init"}

    def bad_row(doc):  # init as a producer of g0
        solver = doc["solver"]
        unknowns, rows = solver["unknowns"], solver["put"]["side_dep"]
        table = damage.removeprefix("negative-")
        if damage == "unknown-solver-table":
            solver["put"]["stale"] = [[0, [1]]]
            return
        if damage == "unknown-session-table":
            doc["put"]["functionz"] = {"f": ["", ""]}
            return
        if table == "gone":
            solver["gone"]["infl"] = [-1]
            return
        if table in NEGATIVE_ROWS:
            solver["put"].setdefault(table, []).append(NEGATIVE_ROWS[table])
            return
        row = next(row for row in rows if row[0] == unknowns.index(g0))
        producer = row[1].index(unknowns.index(init))
        if damage == "index":
            row[1][producer] = len(unknowns)
        elif damage == "negative-index":
            row[0] = -1
        else:
            row[1][producer] = -1

    for name in (BASE, JOURNAL):
        assert cli.cmd_analyze(src, opts, io.StringIO(), io.StringIO()) == 0
        if name == BASE:
            _rewrite_base(sd, bad_row)
        else:
            doc = {"solver": {"unknowns": [init, g0], "values": [],
                              "put": {"side_dep": [[1, [0]]]}, "gone": {}}, "put": {}}
            bad_row(doc)
            _append_record(sd, opts, doc["put"], doc["solver"])
        for command in (cli.cmd_reanalyze, cli.cmd_compare):
            out, err = io.StringIO(), io.StringIO()
            assert command(src, opts, out, err) == 2 and out.getvalue() == ""
            assert err.getvalue() == (
                f"error: state bundle {sd}/{name} is unreadable or corrupt "
                f"({ROW_DAMAGE[damage]}); "
                "delete the state dir to reanalyze from scratch\n")
