import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from minicheck import cli, consys, increment, journal, postproc, tdsolver
from minicheck.consys import MAIN, Context, GlobalVar, NodeCtx
from minicheck.corpus import CorpusSpec, corpus_source, edit_sequence
from minicheck.domains import LocalState, ValueSet
from minicheck.minic import parse, syntax, system

from support import FIG2, FIG2_EDIT, log_stable, logged_differences


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def invoke(fn, *args, **kw):
    out, err = io.StringIO(), io.StringIO()
    code = fn(*args, out=out, err=err, **kw)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def ws(tmp_path):
    src = tmp_path / "prog.mc"
    state = tmp_path / "state"
    return str(src), str(state)


def bundle_of(state_dir):
    """The state persisted in `state_dir`, the base with the journal
    replayed, as the document a full save of it writes, under the base's
    format, creation time and checksum."""
    with open(os.path.join(state_dir, "bundle.json")) as f:
        head = json.load(f)
    compat = head["compat"]
    opts = cli.Options(domain=compat["domain"], wpoint_restart=compat["wpoint_restart"])
    session = cli.load_bundle(state_dir, opts)
    session.image = None
    with tempfile.TemporaryDirectory() as full:
        cli.save_bundle(full, session, opts)
        with open(os.path.join(full, "bundle.json")) as f:
            doc = json.load(f)
    doc.update((k, head[k]) for k in ("format", "created_at", "sha256"))
    return doc


def write_bundle(state_dir, doc):
    """Write `doc`, a document as `bundle_of` returns it, as the base of
    `state_dir`, its first line with the checksum of the rest, and drop the
    journal."""
    doc = dict(doc)
    head = {"format": doc.pop("format"), "created_at": doc.pop("created_at")}
    doc.pop("sha256", None)
    body = json.dumps(doc, separators=(",", ":"))[1:] + "\n"
    head["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    write(os.path.join(state_dir, "bundle.json"),
          json.dumps(head, separators=(",", ":"))[:-1] + ",\n" + body)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(state_dir, "bundle.journal"))


def test_analyze_reports_race_and_persists_state(ws):
    src, sd = ws
    write(src, FIG2)
    code, out, err = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    assert code == 0
    warnings = json.loads(out)
    assert any(w["kind"] == "race" for w in warnings)
    assert os.path.exists(os.path.join(sd, "bundle.json"))


def test_empty_main_has_no_warnings_and_exit_zero(ws):
    src, sd = ws
    write(src, "int main(){ return 0; }")
    code, out, _ = invoke(cli.cmd_analyze, src,
                          cli.Options(state_dir=sd, fail_on_warn=True))
    assert code == 0
    assert json.loads(out) == []


def test_fail_on_warn_sets_exit_one(ws):
    src, sd = ws
    write(src, FIG2)
    code, _, _ = invoke(cli.cmd_analyze, src,
                        cli.Options(state_dir=sd, fail_on_warn=True))
    assert code == 1


def test_unparsable_file_exits_two_with_location(ws):
    src, sd = ws
    write(src, "int main( {")
    code, _, err = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    assert code == 2
    assert "error" in err and ":" in err


def test_missing_file_exits_two(ws):
    src, sd = ws
    code, _, err = invoke(cli.cmd_analyze, src + ".nope", cli.Options(state_dir=sd))
    assert code == 2


def test_a_source_that_is_not_utf8_exits_two_and_serve_answers_an_error(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    bundle = bundle_of(sd)
    bad = src + ".bad"
    with open(bad, "wb") as f:
        f.write(b"int main() { return 0; } // \xff\n")
    for command in (cli.cmd_analyze, cli.cmd_reanalyze, cli.cmd_compare):
        code, out, err = invoke(command, bad, opts)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert bundle_of(sd) == bundle
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": bad}),
        json.dumps({"id": 2, "method": "reanalyze", "path": src}),
        json.dumps({"method": "shutdown"}),
    ])
    assert responses[0]["error"].startswith(f"cannot read {bad}: 'utf-8' codec")
    assert responses[1]["id"] == 2 and responses[1]["result"]["added"] == []


def test_repeated_analyze_is_byte_identical_modulo_timestamp(ws):
    src, sd = ws
    write(src, FIG2)
    _, out1, _ = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    b1 = bundle_of(sd)
    _, out2, _ = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    b2 = bundle_of(sd)
    assert out1 == out2
    b1.pop("created_at"), b2.pop("created_at")
    assert json.dumps(b1) == json.dumps(b2)


def test_reanalyze_round_trip_on_unchanged_source(ws):
    src, sd = ws
    write(src, FIG2)
    _, warn0, _ = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    evals_before = bundle_of(sd)["solver"]["put"]["counters"]["rhs_evals"]
    code, out, err = invoke(cli.cmd_reanalyze, src, cli.Options(state_dir=sd, stats=True))
    assert code == 0
    diff = json.loads(out)
    assert diff["added"] == [] and diff["removed"] == []
    assert [w["id"] for w in diff["kept"]] == [w["id"] for w in json.loads(warn0)]
    assert bundle_of(sd)["solver"]["put"]["counters"]["rhs_evals"] == evals_before
    # nothing changed, so the post-solve walk, from what the state's tables
    # say the last one reached, evaluates no rhs and walks no unknown
    assert json.loads(err)["postprocess"] == \
        {"reevaluated": 0, "reused": 8, "evaluated": 0, "walked": 0}


def test_reanalyze_without_bundle_falls_back_to_analyze(ws):
    src, sd = ws
    write(src, FIG2)
    code, out, err = invoke(cli.cmd_reanalyze, src, cli.Options(state_dir=sd))
    assert code == 0
    assert "no previous state" in err
    assert isinstance(json.loads(out), list)  # analyze output shape


def test_reanalyze_reports_value_change_and_stats(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, FIG2_EDIT)
    opts = cli.Options(state_dir=sd, restart="off", stats=True, explain_diff=True)
    code, out, err = invoke(cli.cmd_reanalyze, src, opts)
    assert code == 0
    payload = json.loads(out)
    assert payload["changes"]["changed"] == ["foo"]
    stats = json.loads(err)
    assert stats["run"]["step1_rhs_evals"] >= 1
    st = cli.load_bundle(sd, opts).state
    assert st.sigma[GlobalVar("g")] == ValueSet.of([0, 1, 2])


def test_reanalyze_with_minimal_restart_recovers_precision(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, FIG2_EDIT)
    opts = cli.Options(state_dir=sd, restart="minimal")
    code, out, _ = invoke(cli.cmd_reanalyze, src, opts)
    assert code == 0
    st = cli.load_bundle(sd, opts).state
    assert st.sigma[GlobalVar("g")] == ValueSet.of([0, 2])


def test_options_mismatch_is_refused(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd, domain="valueset"))
    code, _, err = invoke(cli.cmd_reanalyze, src,
                          cli.Options(state_dir=sd, domain="interval"))
    assert code == 2
    assert "different analysis options" in err


@pytest.mark.parametrize("analyzed, reused", [(False, True), (True, False)])
def test_wpoint_restart_mismatch_is_refused(ws, analyzed, reused):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd, wpoint_restart=analyzed))
    bundle = bundle_of(sd)
    assert bundle["compat"]["wpoint_restart"] is analyzed
    opts = cli.Options(state_dir=sd, wpoint_restart=reused)
    for command in (cli.cmd_reanalyze, cli.cmd_compare):
        code, out, err = invoke(command, src, opts)
        assert code == 2 and out == ""
        assert err.startswith("error: state bundle was produced with different analysis "
                              f"options (wpoint_restart {analyzed!r} vs {reused!r})")
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"method": "shutdown"}),
    ])
    assert "wpoint_restart" in responses[0]["error"]
    assert bundle_of(sd) == bundle  # refused, not overwritten


def _set_format(sd, fmt):
    doc = bundle_of(sd)
    doc["format"] = fmt
    write_bundle(sd, doc)


# Format 3 is the last format whose solver section holds a start unknown,
# format 4 the last one without a journal, format 5 the last one whose base
# is not a record, format 6 the last one without the producers' contributions,
# format 7 the last one that stores contributions, format 8 the last one
# with a table of stale infl edges.
@pytest.mark.parametrize("fmt", [1, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("command", [cli.cmd_reanalyze, cli.cmd_compare])
def test_an_old_bundle_format_is_refused(ws, command, fmt):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    _set_format(sd, fmt)
    code, out, err = invoke(command, src, cli.Options(state_dir=sd))
    assert code == 2 and out == ""
    assert err.startswith(f"error: state bundle format {fmt} is not supported")
    assert "delete the state dir" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", [1, 3, 4, 5, 6])
def test_serve_answers_an_old_bundle_format_with_an_error(ws, fmt):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    _set_format(sd, fmt)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "warnings"}),
        json.dumps({"method": "shutdown"}),
    ])
    assert [r["id"] for r in responses[:2]] == [1, 2]
    for r in responses[:2]:
        assert r["error"].startswith(f"state bundle format {fmt} is not supported")
        assert "delete the state dir" in r["error"]


def test_reanalyze_parses_only_the_new_source(ws, monkeypatch):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, FIG2_EDIT)
    parsed = []
    original = cli.parse

    def counting(text, previous=None):
        parsed.append(text)
        return original(text, previous)

    monkeypatch.setattr(cli, "parse", counting)
    code, out, _ = invoke(cli.cmd_reanalyze, src, cli.Options(state_dir=sd, explain_diff=True))
    assert code == 0
    assert json.loads(out)["changes"]["changed"] == ["foo"]
    assert parsed == [FIG2_EDIT]


def test_bundle_is_compact_and_holds_digests(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    with open(os.path.join(sd, "bundle.json")) as f:
        text = f.read()
    doc = json.loads(text)
    assert doc["format"] == cli.BUNDLE_FORMAT == 9
    head, body = text.split("\n", 1)
    assert head + body == json.dumps(doc, separators=(",", ":")) + "\n"
    assert list(doc) == ["format", "created_at", "sha256", "compat", "solver", "put", "gone"]
    assert head.endswith(f'"sha256":"{hashlib.sha256(body.encode()).hexdigest()}",')
    assert doc["gone"] == doc["solver"]["gone"] == {}
    assert cli.load_bundle(sd, cli.Options()).digests == parse(FIG2).digests


def test_a_full_save_writes_the_bytes_of_a_one_shot_encoding(tmp_path):
    """The base is the journal record that turns the empty session into the
    saved one, encoded member by member as it is built; the bytes are those
    of one `json.dumps` of the whole document, with a newline after the
    first line."""
    opts = cli.Options(state_dir=str(tmp_path))
    session = cli.run_analysis(corpus_source(CorpusSpec(40, 3)), "prog.mc", opts).session
    framed, _ = journal.record(journal.EMPTY, session, "b", "p")
    assert cli.save_bundle(opts.state_dir, session, opts)["kind"] == "full"
    with open(tmp_path / "bundle.json", "rb") as f:
        data = f.read()
    header = json.loads(data)
    record = json.loads(framed.split(b" ", 1)[1])
    assert (record.pop("base"), record.pop("prev")) == ("b", "p")
    doc = {"format": cli.BUNDLE_FORMAT, "created_at": header["created_at"], "sha256": header["sha256"],
           "compat": opts.compat(), **record}
    assert data.replace(b"\n", b"", 1) == json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def test_the_solver_section_holds_only_the_unknowns_of_the_system(ws):
    """After an analyze and two edits the solver section has its fixed
    members, and the only unknowns are program points, globals and the two
    harness markers."""
    src, sd = ws
    spec = CorpusSpec(40, 3)
    opts = cli.Options(state_dir=sd)
    write(src, corpus_source(spec))
    assert invoke(cli.cmd_analyze, src, opts)[0] == 0
    for edited in edit_sequence(spec, 2, seed=1):
        write(src, corpus_source(edited))
        assert invoke(cli.cmd_reanalyze, src, opts)[0] == 0
    solver = bundle_of(sd)["solver"]
    assert list(solver) == ["unknowns", "values", "put", "gone"] and solver["gone"] == {}
    # the tables in one fixed order, an empty one left out
    order = ["sigma", "infl", "side_dep", "side_infl", "stable", "point", "counters"]
    assert list(solver["put"]) == [m for m in order if m in solver["put"]]
    assert {"sigma", "infl", "stable", "point", "counters"} <= set(solver["put"])
    kinds = [u["k"] for u in solver["unknowns"]]
    assert set(kinds) == {"node", "global", "init", "main"}
    assert {kinds[i] for i, _ in solver["put"]["sigma"]} <= {"node", "global", "init", "main"}


def test_bundle_does_not_depend_on_the_hash_seed(tmp_path):
    src = tmp_path / "prog.mc"
    write(str(src), corpus_source(CorpusSpec(40, 3)))
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    bundles = []
    for seed in ("1", "2"):
        state = tmp_path / f"state-{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
        subprocess.run([sys.executable, "-m", "minicheck.cli", "analyze", str(src),
                        "--state-dir", str(state)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        with open(state / "bundle.json") as f:
            text = f.read()
        bundles.append(text.replace(json.loads(text)["created_at"], ""))
    assert bundles[0] == bundles[1]


def test_compare_right_after_analyze_is_all_equal(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    code, out, _ = invoke(cli.cmd_compare, src, cli.Options(state_dir=sd))
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] > 0
    assert rep["equal"] == rep["total"]
    assert rep["coarser_fraction"] == 0.0


def test_compare_requires_bundle(ws):
    src, sd = ws
    write(src, FIG2)
    code, _, err = invoke(cli.cmd_compare, src, cli.Options(state_dir=sd))
    assert code == 2


def test_compare_on_stale_bundle_is_refused(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, FIG2_EDIT)
    code, _, err = invoke(cli.cmd_compare, src, cli.Options(state_dir=sd))
    assert code == 2
    assert "run reanalyze first" in err


def test_compare_after_a_whitespace_and_comment_edit_is_all_equal(ws):
    # staleness is decided on the digests, which erase source locations
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, "// moved down\n\n" + FIG2.replace("*p = 1;", "*p  =  1;  /* same */"))
    code, out, _ = invoke(cli.cmd_compare, src, cli.Options(state_dir=sd))
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] > 0 and rep["equal"] == rep["total"]


def test_reanalyze_without_bundle_writes_the_bundle_of_an_analyze(tmp_path):
    src = str(tmp_path / "prog.mc")
    write(src, FIG2)
    bundles = []
    for command in (cli.cmd_analyze, cli.cmd_reanalyze):
        sd = str(tmp_path / command.__name__)
        assert invoke(command, src, cli.Options(state_dir=sd))[0] == 0
        doc = bundle_of(sd)
        doc.pop("created_at")
        bundles.append(doc)
    assert bundles[0] == bundles[1]


def test_main_entrypoint_wires_subcommands(ws, capsys):
    src, sd = ws
    write(src, FIG2)
    code = cli.main(["analyze", src, "--state-dir", sd])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)


# -- server mode ------------------------------------------------------------------


def serve_lines(opts, lines):
    """The responses of one server to `lines`, which end in a shutdown."""
    inp = io.StringIO("".join(l + "\n" for l in lines))
    out = io.StringIO()
    assert cli.Server(opts).serve(inp, out)  # the shutdown ended the loop
    return [json.loads(l) for l in out.getvalue().splitlines()]


def test_serve_reanalyze_and_warnings_flow(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    write(src, FIG2_EDIT)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "warnings"}),
        json.dumps({"id": 3, "method": "shutdown"}),
    ])
    r1, r2, r3 = responses
    assert r1["id"] == 1 and "result" in r1
    assert set(r1["result"]) >= {"added", "removed", "kept"}
    assert r2["id"] == 2 and isinstance(r2["result"], list)
    assert r3["result"] == "bye"


def test_serve_survives_malformed_json(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    responses = serve_lines(opts, [
        "{this is not json",
        json.dumps({"id": 5, "method": "warnings"}),
        json.dumps({"method": "shutdown"}),
    ])
    assert "error" in responses[0]
    assert responses[1]["id"] == 5 and "result" in responses[1]


def test_serve_processes_requests_in_order(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    responses = serve_lines(opts, [
        json.dumps({"id": "a", "method": "reanalyze", "path": src}),
        json.dumps({"id": "b", "method": "reanalyze", "path": src}),
        json.dumps({"method": "shutdown"}),
    ])
    assert [r.get("id") for r in responses[:2]] == ["a", "b"]


def test_serve_unknown_method(ws):
    src, sd = ws
    opts = cli.Options(state_dir=sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 9, "method": "bogus"}),
        json.dumps({"method": "shutdown"}),
    ])
    assert "error" in responses[0]


def test_serve_rejects_a_path_that_is_not_a_string(ws):
    src, sd = ws
    opts = cli.Options(state_dir=sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze"}),
        json.dumps({"id": 2, "method": "reanalyze", "path": ["prog.mc"]}),
        json.dumps({"method": "shutdown"}),
    ])
    assert ["path" in r["error"] for r in responses[:2]] == [True, True]


def test_serve_reanalyze_without_state_falls_back(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"method": "shutdown"}),
    ])
    assert responses[0]["result"]["fallback"] == "analyze"
    assert responses[0]["result"]["added"]  # first analysis: the race is new


def test_serve_socket_outlives_a_disconnecting_client(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    sock_dir = tempfile.mkdtemp()  # short: Unix socket paths are limited to ~108 bytes
    path = os.path.join(sock_dir, "s")
    box = {}
    server = threading.Thread(
        target=lambda: box.setdefault("code", cli.cmd_serve(opts, path, err=io.StringIO())),
        daemon=True)
    server.start()
    try:
        deadline = time.monotonic() + 10
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.01)
        with socket.socket(socket.AF_UNIX) as first:
            first.connect(path)
        with socket.socket(socket.AF_UNIX) as second:
            second.connect(path)
            second.sendall(b'{"id": 1, "method": "warnings"}\n{"id": 2, "method": "shutdown"}\n')
            with second.makefile("r") as answers:
                responses = [json.loads(answers.readline()) for _ in range(2)]
    finally:
        server.join(timeout=10)
        shutil.rmtree(sock_dir, ignore_errors=True)
    assert not server.is_alive()
    assert box["code"] == 0
    assert responses[0]["id"] == 1 and isinstance(responses[0]["result"], list)
    assert responses[1]["result"] == "bye"


@pytest.mark.parametrize("damage", ["truncated", "not-json", "missing-key", "bad-digests",
                                    "globals-not-names", "not-utf8", "flipped-digit"])
@pytest.mark.parametrize("command", [cli.cmd_reanalyze, cli.cmd_compare])
def test_damaged_bundle_exits_two_with_an_error(ws, command, damage):
    """The structural damages come with a valid checksum, so that the checks
    behind it are reached."""
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    path = os.path.join(sd, "bundle.json")
    text = open(path).read()
    doc = bundle_of(sd)
    if damage == "truncated":
        text = text[:len(text) // 2]
    elif damage == "not-json":
        text = "[1, 2"
    elif damage == "missing-key":
        del doc["solver"]
    elif damage == "globals-not-names":
        doc["put"]["scalars"]["globals"] = [1]
    elif damage == "bad-digests":
        doc["put"]["functions"]["main"] = "?"
    elif damage == "flipped-digit":  # still valid JSON: only the checksum tells
        at = text.index('"v":[', text.index('"values":')) + len('"v":[')
        text = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        assert json.loads(text) != json.loads(open(path).read())
    if damage in ("missing-key", "globals-not-names", "bad-digests"):
        write_bundle(sd, doc)
    else:
        data = text.encode()
        if damage == "not-utf8":
            data = data[:len(data) // 2] + b"\xff" + data[len(data) // 2 + 1:]
        with open(path, "wb") as f:
            f.write(data)
    code, out, err = invoke(command, src, cli.Options(state_dir=sd))
    assert code == 2
    assert out == ""
    assert err.startswith("error: state bundle") and "Traceback" not in err
    if damage == "flipped-digit":
        assert "checksum" in err
    assert err.count("\n") == 1 and len(err) < 500  # the cause, not the bundle


def test_serve_answers_a_damaged_bundle_with_an_error(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    path = os.path.join(sd, "bundle.json")
    write(path, open(path).read()[:100])
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "warnings"}),
        json.dumps({"method": "shutdown"}),
    ])
    assert [r["id"] for r in responses[:2]] == [1, 2]
    assert all("state bundle" in r["error"] for r in responses[:2])


def _damage_the_node_table(src, sd):
    """Analyze a 20-function corpus, then drop the last node id of `f000`
    from the bundle: its digests stay intact, its node table no longer fits
    the source."""
    write(src, corpus_source(CorpusSpec(n_functions=20, seed=7)))
    opts = cli.Options(state_dir=sd)
    assert invoke(cli.cmd_analyze, src, opts)[0] == 0
    doc = bundle_of(sd)
    doc["put"]["assign"]["f000"].pop()
    write_bundle(sd, doc)
    return opts


@pytest.mark.parametrize("command", [cli.cmd_reanalyze, cli.cmd_compare])
def test_a_node_table_that_does_not_fit_the_source_exits_two(ws, command):
    src, sd = ws
    opts = _damage_the_node_table(src, sd)
    code, out, err = invoke(command, src, opts)
    assert (code, out) == (2, "")
    assert err == ("error: state bundle node ids of function 'f000' do not fit its CFG "
                   "(4 ids for 5 nodes); delete the state dir to reanalyze from scratch\n")


def test_serve_answers_a_node_table_that_does_not_fit_the_source_with_an_error(ws):
    src, sd = ws
    opts = _damage_the_node_table(src, sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "reanalyze", "path": src}),
        json.dumps({"id": 3, "method": "shutdown"}),
    ])
    assert [r["id"] for r in responses] == [1, 2, 3]
    assert all(r["error"].startswith("state bundle node ids of function 'f000'")
               for r in responses[:2])


REMOVES_H = "int g = 0; int f(int x) { return x; } %sint main() { y = f(1); return 0; }\n"


def _empty_the_node_ids_of_h(src, sd):
    """Analyze a program with a function `h`, empty `h`'s node ids in the
    bundle and remove `h` from the source: the ids of a removed function are
    read, never reused."""
    write(src, REMOVES_H % "int h(int x) { return x; } ")
    opts = cli.Options(state_dir=sd)
    assert invoke(cli.cmd_analyze, src, opts)[0] == 0
    doc = bundle_of(sd)
    doc["put"]["assign"]["h"] = []
    write_bundle(sd, doc)
    write(src, REMOVES_H % "")
    return opts


EMPTY_IDS_OF_H = ("state bundle node ids of function 'h' do not fit any CFG (0 ids for at "
                  "least 2 nodes); delete the state dir to reanalyze from scratch")


def test_empty_node_ids_of_a_removed_function_exit_two(ws):
    src, sd = ws
    opts = _empty_the_node_ids_of_h(src, sd)
    assert invoke(cli.cmd_reanalyze, src, opts) == (2, "", f"error: {EMPTY_IDS_OF_H}\n")


def test_serve_answers_empty_node_ids_of_a_removed_function_with_an_error(ws):
    src, sd = ws
    opts = _empty_the_node_ids_of_h(src, sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "shutdown"}),
    ])
    assert responses == [{"id": 1, "error": EMPTY_IDS_OF_H}, {"id": 2, "result": "bye"}]


def _corpus_edits():
    """A small corpus and three cumulative edits; f003 writes a global, so
    its `gval` edits restart that global."""
    spec = CorpusSpec(n_functions=24, seed=7)
    edits = []
    for idx, variant in ((3, "gval:17"), (5, "const:9"), (10, "gval:2")):
        spec = spec.with_variant(idx, variant)
        edits.append(corpus_source(spec))
    return corpus_source(CorpusSpec(n_functions=24, seed=7)), edits


def _count_loads(monkeypatch):
    """Record every `load_bundle` call from here on."""
    loads = []
    original = cli.load_bundle

    def counting(*args):
        loads.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "load_bundle", counting)
    return loads


def test_serve_session_matches_cli_reanalyze(tmp_path, monkeypatch):
    base, edits = _corpus_edits()
    src = str(tmp_path / "prog.mc")
    cli_dir, serve_dir = str(tmp_path / "cli"), str(tmp_path / "serve")

    write(src, base)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=cli_dir))
    cli_diffs, cli_stats = [], []
    for text in edits:
        write(src, text)
        code, out, err = invoke(cli.cmd_reanalyze, src,
                                cli.Options(state_dir=cli_dir, stats=True))
        assert code == 0
        cli_diffs.append(json.loads(out))
        cli_stats.append(json.loads(err))
    assert any(s["run"]["restarted"] for s in cli_stats)
    cli_bundle = bundle_of(cli_dir)

    write(src, base)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=serve_dir))
    loads = _count_loads(monkeypatch)

    def requests():
        for i, text in enumerate(edits):
            write(src, text)
            yield json.dumps({"id": i, "method": "reanalyze", "path": src})
        yield json.dumps({"method": "shutdown"})

    out = io.StringIO()
    assert cli.Server(cli.Options(state_dir=serve_dir, stats=True)).serve(requests(), out)
    results = [json.loads(l)["result"] for l in out.getvalue().splitlines()[:-1]]
    # The CLI parses all 25 functions every time; the server, which loaded
    # its state from the bundle, parses them all once and then only the
    # edited one.
    assert [s["parsed"] for s in cli_stats] == [25, 25, 25]
    stats = [r.pop("stats") for r in results]
    # Both walks start from what the last one reached: the server's kept in
    # memory after the first request, which loaded the bundle, the CLI's
    # read off the bundle's tables.
    walked = [(s["postprocess"].pop("walked"), c["postprocess"].pop("walked"))
              for s, c in zip(stats, cli_stats)]
    assert all(s == c for s, c in walked)
    assert stats == \
        [{"rhs_evals_total": s["rhs_evals_total"],
          "destabilizations_total": s["destabilizations_total"],
          "parsed": parsed,
          "diagnostics": s["run"]["diagnostics"],
          "postprocess": s["postprocess"],
          "persisted": s["persisted"]} for s, parsed in zip(cli_stats, [25, 1, 1])]
    assert results == cli_diffs
    assert len(loads) == 1
    serve_bundle = bundle_of(serve_dir)
    cli_bundle.pop("created_at"), serve_bundle.pop("created_at")
    assert json.dumps(serve_bundle) == json.dumps(cli_bundle)
    assert sorted(os.listdir(serve_dir)) == ["bundle.journal", "bundle.json"]


def test_serve_reloads_the_bundle_after_a_failed_request(ws, monkeypatch):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    before = open(os.path.join(sd, "bundle.json")).read()
    write(src, FIG2_EDIT)
    request = json.dumps({"id": 1, "method": "reanalyze", "path": src}) + "\n"
    loads = _count_loads(monkeypatch)

    server = cli.Server(opts)
    with monkeypatch.context() as m:
        m.setattr(postproc, "check_unknown", lambda sys_, st, u, es, value: ["injected violation"])
        out = io.StringIO()
        server.serve(io.StringIO(request), out)
        assert "verification failed" in json.loads(out.getvalue())["error"]
    assert open(os.path.join(sd, "bundle.json")).read() == before
    out = io.StringIO()
    server.serve(io.StringIO(request), out)
    assert len(loads) == 2

    write(os.path.join(sd, "bundle.json"), before)
    fresh = io.StringIO()
    cli.Server(opts).serve(io.StringIO(request), fresh)
    assert json.loads(out.getvalue()) == json.loads(fresh.getvalue())
    assert "result" in json.loads(fresh.getvalue())


# -- one evaluation per unknown after the solve, and what it still verifies ----


def _rebind(monkeypatch, original, replacement):
    """Replace `original` in every loaded minicheck namespace that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "minicheck" or name.startswith("minicheck."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _after_run(monkeypatch, action):
    """Call `action(sys_, state)` each time `tdsolver.run` returns; the run
    records what leaves stable (`support.StableLog`)."""
    original = tdsolver.run

    def run(sys_, state, *args, **kwargs):
        log_stable(state)
        stats = original(sys_, state, *args, **kwargs)
        action(sys_, state)
        return stats

    _rebind(monkeypatch, original, run)


def test_post_solve_work_evaluates_each_unknown_once(monkeypatch):
    """Verification, reachability and access collection share one pure
    evaluation of each right-hand side."""
    owner = {}  # id(tree) -> (tree, unknown), for every rhs built
    counts = collections.Counter()
    solved = []
    build_rhs, evaluate = system._SystemGen.rhs, consys.eval_tree

    def rhs(self, u):
        tree = build_rhs(self, u)
        owner[id(tree)] = (tree, u)
        return tree

    def counting_eval_tree(tree, lookup):
        if solved:
            counts[owner[id(tree)][1]] += 1
        return evaluate(tree, lookup)

    monkeypatch.setattr(system._SystemGen, "rhs", rhs)
    _rebind(monkeypatch, evaluate, counting_eval_tree)
    _after_run(monkeypatch, lambda sys_, state: solved.append(True))

    base, edits = _corpus_edits()
    session = cli.Session.empty()
    for text in [base, *edits]:
        solved.clear()
        counts.clear()
        session = cli.run_reanalysis(session, text, "prog.mc", cli.Options()).session
        assert solved and counts and max(counts.values()) == 1


def _main_return(sys_, state):
    """The unknown of main's return node, which the query always reaches."""
    es, _ = consys.eval_tree(sys_.rhs(MAIN), sys_.lookup(state.sigma))
    return list(es.queried)[-1]


def _lower_reachable(sys_, state):
    state.sigma.pop(_main_return(sys_, state))


def _lower_unreachable(sys_, state):
    """Copy main's nodes into a calling context nothing calls, all stable,
    with the copy of the return node at Bot below its right-hand side."""
    unused = Context.of({"planted": ValueSet.of([1])})
    for u in [u for u in state.stable if isinstance(u, NodeCtx) and u.fn == "main"]:
        copy = NodeCtx(u.fn, u.node, unused)
        state.sigma[copy] = state.sigma[u]
        state.stable.add(copy)
    state.sigma.pop(NodeCtx("main", _main_return(sys_, state).node, unused))


def _reused(state):
    """Stable nodes with a value outside `main` that no edit touched:
    untouched by the run after a reanalysis; after an analyze, which reuses
    nothing, every stable one."""
    return sorted((u for u in state.stable.untouched() or state.stable
                   if isinstance(u, NodeCtx) and u.fn != "main" and u in state.sigma),
                  key=consys.sort_key)


def _reads_of_reused(sys_, state):
    """(reused unknown, a node it reads that has a value), in order."""
    for x in _reused(state):
        es, _ = consys.eval_tree(sys_.rhs(x), sys_.lookup(state.sigma))
        for y in es.queried:
            if isinstance(y, NodeCtx) and y in state.sigma:
                yield x, y


def _lower_a_read_of_a_reused_unknown(sys_, state):
    _, y = next(_reads_of_reused(sys_, state))
    state.sigma.pop(y)


def _raise_a_read_of_a_reused_unknown(sys_, state):
    """Raise the parameter `p` to Top at a node that a reused unknown reads:
    that node's own check still holds, its reader's does not."""
    for _, y in _reads_of_reused(sys_, state):
        s = state.sigma[y]
        if not s.is_bot() and "p" in s.env.as_dict():
            state.sigma[y] = LocalState(s.env.set("p", ValueSet.top()), s.locks)
            return
    raise AssertionError("no reused unknown reads a node that binds p")


def _lower_a_global_a_reused_unknown_writes(sys_, state):
    """Lower a global to what the initializer writes: only the reused writer
    exceeds it."""
    init, _ = consys.eval_tree(sys_.rhs(consys.INIT), sys_.lookup(state.sigma))
    for x in _reused(state):
        for g in state.side_infl.get(x, ()):
            if isinstance(g, GlobalVar) and state.sigma.get(g) != init.sides[g]:
                state.sigma[g] = init.sides[g]
                return
    raise AssertionError("no reused unknown writes a global beyond its initial value")


def _drop_a_reused_unknown(sys_, state):
    state.sigma.pop(next(u for u in _reused(state) if u not in state.side_dep))


@pytest.mark.parametrize("plant", [_lower_reachable, _lower_unreachable,
                                   _lower_a_read_of_a_reused_unknown,
                                   _raise_a_read_of_a_reused_unknown,
                                   _lower_a_global_a_reused_unknown_writes,
                                   _drop_a_reused_unknown])
@pytest.mark.parametrize("command", ["analyze", "reanalyze"])
def test_a_planted_violation_fails_verification(ws, monkeypatch, command, plant):
    src, sd = ws
    base, edits = _corpus_edits()
    write(src, base)
    if command == "reanalyze":
        invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
        before = bundle_of(sd)
        write(src, edits[0])
    _after_run(monkeypatch, plant)
    run_command = cli.cmd_analyze if command == "analyze" else cli.cmd_reanalyze
    code, out, err = invoke(run_command, src, cli.Options(state_dir=sd))
    assert code == 2 and out == ""
    assert err.startswith("error: internal error: solution verification failed")
    if command == "analyze":
        assert not os.path.exists(os.path.join(sd, "bundle.json"))
    else:
        assert bundle_of(sd) == before


# -- solver errors ----------------------------------------------------------------


def test_a_solver_depth_error_exits_two_without_a_bundle(ws, monkeypatch):
    src, sd = ws
    write(src, corpus_source(CorpusSpec(20, 7)))
    monkeypatch.setattr(tdsolver, "MAX_SOLVE_DEPTH", 5)
    code, out, err = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    assert code == 2 and out == ""
    assert err.startswith("error: solve depth exceeded 5") and "Traceback" not in err
    assert not os.path.exists(os.path.join(sd, "bundle.json"))


def test_serve_answers_a_solver_depth_error_and_the_next_request(ws, monkeypatch):
    src, sd = ws
    write(src, corpus_source(CorpusSpec(20, 7)))
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    write(src, corpus_source(CorpusSpec(20, 7).with_variant(3, "gval:17")))
    max_depth = tdsolver.MAX_SOLVE_DEPTH
    monkeypatch.setattr(tdsolver, "MAX_SOLVE_DEPTH", 5)

    def requests():
        yield json.dumps({"id": 1, "method": "reanalyze", "path": src})
        monkeypatch.setattr(tdsolver, "MAX_SOLVE_DEPTH", max_depth)
        yield json.dumps({"id": 2, "method": "reanalyze", "path": src})
        yield json.dumps({"method": "shutdown"})

    out = io.StringIO()
    assert cli.Server(opts).serve(requests(), out)
    first, second, _bye = [json.loads(l) for l in out.getvalue().splitlines()]
    assert first["id"] == 1 and "solve depth exceeded 5" in first["error"]
    assert second["id"] == 2 and set(second["result"]) == {"added", "removed", "kept"}


# -- serve --socket and what is at its path ---------------------------------------------


def _serve_socket(opts, path):
    """Run `cmd_serve` on `path` in a daemon thread; returns the thread and
    a box that receives its exit code and what it wrote to stderr."""
    box = {}

    def serve():
        err = io.StringIO()
        box["code"] = cli.cmd_serve(opts, path, err=err)
        box["err"] = err.getvalue()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread, box


def _connect(path):
    """A client connected to the server at `path`, once it listens."""
    deadline = time.monotonic() + 10
    while True:
        client = socket.socket(socket.AF_UNIX)
        try:
            client.connect(path)
            return client
        except (FileNotFoundError, ConnectionRefusedError):  # not bound or not listening yet
            client.close()
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.01)


def _ask(path, method):
    """The answer of the server at `path` to one request on a new connection."""
    with _connect(path) as client, client.makefile("r") as answers:
        client.sendall(json.dumps({"id": 1, "method": method}).encode() + b"\n")
        return json.loads(answers.readline())


def test_serve_socket_refuses_to_delete_a_regular_file(ws):
    _, sd = ws
    sock_dir = tempfile.mkdtemp()
    try:
        path = os.path.join(sock_dir, "s")
        write(path, "precious")
        thread, box = _serve_socket(cli.Options(state_dir=sd), path)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["code"] == 2
        with open(path) as f:
            assert f.read() == "precious"
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)


def test_serve_socket_in_a_missing_directory_exits_two(ws):
    _, sd = ws
    sock_dir = tempfile.mkdtemp()
    try:
        err = io.StringIO()
        code = cli.cmd_serve(cli.Options(state_dir=sd), os.path.join(sock_dir, "no", "s"), err)
        assert code == 2
        assert err.getvalue().startswith("error: cannot listen on")
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)


def test_serve_socket_replaces_a_stale_socket(ws):
    _, sd = ws
    sock_dir = tempfile.mkdtemp()
    try:
        path = os.path.join(sock_dir, "s")
        with socket.socket(socket.AF_UNIX) as stale:
            stale.bind(path)  # closed without unlinking, as by a killed server
        thread, box = _serve_socket(cli.Options(state_dir=sd), path)
        assert _ask(path, "shutdown")["result"] == "bye"
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["code"] == 0
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)


def test_serve_socket_leaves_a_live_server_alone(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    sock_dir = tempfile.mkdtemp()
    try:
        path = os.path.join(sock_dir, "s")
        first, first_box = _serve_socket(opts, path)
        assert isinstance(_ask(path, "warnings")["result"], list)
        inode = os.lstat(path).st_ino
        second, second_box = _serve_socket(opts, path)
        second.join(timeout=10)
        assert not second.is_alive() and second_box["code"] == 2
        assert second_box["err"] == f"error: another server is listening on {path}\n"
        assert os.lstat(path).st_ino == inode
        assert isinstance(_ask(path, "warnings")["result"], list)
        assert _ask(path, "shutdown")["result"] == "bye"
        first.join(timeout=10)
        assert not first.is_alive() and first_box["code"] == 0
        assert not os.path.lexists(path)
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)


def test_serve_socket_removes_only_its_own_socket_on_exit(ws):
    _, sd = ws
    sock_dir = tempfile.mkdtemp()
    try:
        path = os.path.join(sock_dir, "s")
        thread, box = _serve_socket(cli.Options(state_dir=sd), path)
        with _connect(path) as client, client.makefile("r") as answers:
            os.unlink(path)
            with socket.socket(socket.AF_UNIX) as other:
                other.bind(path)  # another server's socket, bound meanwhile
                theirs = os.lstat(path)
                client.sendall(b'{"id": 1, "method": "shutdown"}\n')
                assert json.loads(answers.readline())["result"] == "bye"
                thread.join(timeout=10)
                assert not thread.is_alive() and box["code"] == 0
                assert os.path.samestat(os.lstat(path), theirs)
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)


# -- parse errors, solver diagnostics ------------------------------------------------


def test_a_non_decimal_digit_exits_two_and_serve_answers_an_error(ws):
    src, sd = ws
    write(src, "int g = ²;\nint main() { return g; }\n")
    code, out, err = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    assert (code, out, err) == (2, "", "error: 1:9: unexpected character '²'\n")
    responses = serve_lines(cli.Options(state_dir=sd), [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"method": "shutdown"}),
    ])
    assert responses[0] == {"id": 1, "error": "1:9: unexpected character '²'"}



def test_deeply_nested_source_exits_two_and_serve_answers_an_error(ws):
    # The parser and the right-hand sides recurse once per nesting level of
    # an expression, so a RecursionError stays one of the errors reported.
    src, sd = ws
    write(src, "int main() { x = " + "(" * 3000 + "1" + ")" * 3000 + "; return x; }\n")
    code, out, err = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    ok = os.path.join(os.path.dirname(src), "ok.mc")
    write(ok, FIG2)
    responses = serve_lines(cli.Options(state_dir=sd), [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "reanalyze", "path": ok}),
        json.dumps({"method": "shutdown"}),
    ])
    assert "error" in responses[0]
    assert responses[1]["id"] == 2 and responses[1]["result"]["added"]

# At the loop head `a` is the integer Top of an unassigned local on the way
# in and a pointer on the way around.
INT_OR_POINTER = ("void* f(int x) { return NULL; }\n"
                  "int main() { i = 0; while (i < 3) { a = f(1); i = i + 1; } return 0; }\n")


def test_a_local_of_two_domains_exits_two_and_serve_answers_an_error(ws):
    src, sd = ws
    write(src, INT_OR_POINTER)
    code, out, err = invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    assert (code, out) == (2, "")
    assert err == "error: domain mismatch: ValueSet vs AddressSet\n"
    assert not os.path.exists(os.path.join(sd, "bundle.json"))
    ok = os.path.join(os.path.dirname(src), "ok.mc")
    write(ok, FIG2)
    responses = serve_lines(cli.Options(state_dir=sd), [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "reanalyze", "path": ok}),
        json.dumps({"method": "shutdown"}),
    ])
    assert responses[0] == {"id": 1, "error": "domain mismatch: ValueSet vs AddressSet"}
    assert responses[1]["id"] == 2 and responses[1]["result"]["added"]


LOOP = """int main() {
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
  return i;
}
"""


def test_widening_restart_bound_hits_are_reported_per_run(ws, monkeypatch):
    src, sd = ws
    write(src, LOOP)
    monkeypatch.setattr(tdsolver, "MAX_WPOINT_RESTARTS", 0)
    opts = cli.Options(state_dir=sd, stats=True, wpoint_restart=True)
    code, _, err = invoke(cli.cmd_analyze, src, opts)
    assert code == 0
    hits = json.loads(err)["run"]["diagnostics"]
    assert hits and all(h.startswith("widening-point restart bound hit at ") for h in hits)

    shutil.rmtree(sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "reanalyze", "path": src}),
        json.dumps({"method": "shutdown"}),
    ])
    assert responses[0]["result"]["fallback"] == "analyze"
    assert responses[0]["result"]["stats"]["diagnostics"] == hits
    assert responses[1]["result"]["stats"]["diagnostics"] == []  # nothing re-solved



def test_a_widening_restart_bound_hit_leaves_one_json_document_on_stderr(ws):
    # a process of its own, so that stderr and logging are the command's
    src, sd = ws
    write(src, LOOP)
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    program = ("import sys; from minicheck import cli, tdsolver; "
               "tdsolver.MAX_WPOINT_RESTARTS = 0; sys.exit(cli.main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", program, "analyze", src, "--state-dir", sd,
                           "--stats", "--wpoint-restart"],
                          env=dict(os.environ, PYTHONPATH=package_root),
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert json.loads(done.stderr)["run"]["diagnostics"]

# -- work done and garbage left by the pipeline ----------------------------------------


def _pinned_versions():
    """A 200-function corpus and three cumulative edits: a value-preserving
    `sum`, a `gval:` on a function that writes a global (which restarts the
    global) and a value-changing `const:`."""
    spec = CorpusSpec(n_functions=200, seed=7)
    versions = [corpus_source(spec)]
    for idx, variant in ((100, "sum"), (17, "gval:17"), (9, "const:9")):
        spec = spec.with_variant(idx, variant)
        versions.append(corpus_source(spec))
    return versions


# (rhs_evals_total, destabilizations_total, step-1 rhs evaluations, step-2 rhs
# evaluations, re-evaluated, reused, evaluated by the post-solve walk) after
# the analyze and after each edit.
PINNED_COUNTS = [
    (3508, 4054, 0, 3508, 1388, 0, 1388),
    (3512, 4057, 4, 0, 4, 1384, 4),
    (3729, 4298, 7, 210, 217, 1171, 224),
    (3926, 4496, 4, 193, 197, 1191, 197),
]

# The sorted warning ids after the analyze and after each edit: ids are
# persisted and diffed by id, so a change to what they hash shows here.
_RACE_IDS = ["50673fde15a24591", "9080625c282233d7", "9a5a82cbfbb6fed0", "9cd35a0b6555e8b5"]
PINNED_WARNING_IDS = [_RACE_IDS] * 4


def test_counters_of_an_analyze_and_three_edits_are_pinned(tmp_path):
    """Work done, counted, and the warning ids: a change to the hot path that
    alters what the solver or postprocessing does, or what an id hashes,
    fails here."""
    def counts(r):  # read at once: a reanalysis updates the state in place
        return (r.session.state.rhs_evals, r.session.state.destabilizations,
                r.run_stats["step1_rhs_evals"], r.run_stats["step2_rhs_evals"],
                len(r.post_stats["reevaluated"]), len(r.post_stats["reused"]),
                len(r.post_stats["evaluated"]))

    def warning_ids(r):
        return sorted(w.id for w in r.session.store.warnings)

    base, *edits = _pinned_versions()
    opts = cli.Options(state_dir=str(tmp_path))
    result = cli.run_analysis(base, "prog.mc", opts)
    seen, ids = [counts(result)], [warning_ids(result)]
    for text in edits:
        result = cli.run_reanalysis(result.session, text, "prog.mc", opts)
        seen.append(counts(result))
        ids.append(warning_ids(result))
    assert seen == PINNED_COUNTS
    assert ids == PINNED_WARNING_IDS


@contextlib.contextmanager
def _collector_off():
    """Run the body with the cyclic collector off.  Yields the list of what
    each collection meanwhile freed; a full collection at the end adds its
    count, so the list is all zeros only if the body made no cyclic garbage."""
    freed = []

    def note(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    gc.collect()
    gc.disable()
    gc.callbacks.append(note)
    try:
        yield freed
        gc.collect()
    finally:
        gc.callbacks.remove(note)
        gc.enable()


def test_the_pipeline_leaves_no_cyclic_garbage(tmp_path):
    """Strategy trees, CFGs and ASTs are freed by reference counting alone,
    so the cyclic collector never has to trace them."""
    base, *edits = _pinned_versions()
    opts = cli.Options(state_dir=str(tmp_path))
    with _collector_off() as freed:
        result = cli.run_analysis(base, "prog.mc", opts)
        cli.save_bundle(opts.state_dir, result.session, opts)
        session = cli.load_bundle(opts.state_dir, opts)
        for text in edits:
            session = cli.run_reanalysis(session, text, "prog.mc", opts).session
        del result, session
    assert set(freed) == {0}


def test_compare_leaves_no_cyclic_garbage(tmp_path):
    base, edit = _pinned_versions()[:2]
    opts = cli.Options(state_dir=str(tmp_path))
    session = cli.run_analysis(base, "prog.mc", opts).session
    session = cli.run_reanalysis(session, edit, "prog.mc", opts).session
    with _collector_off() as freed:
        report = cli.compare_report(session, edit, opts)
        del report
    assert set(freed) == {0}


def _serve_corpus(tmp_path, edits):
    """A 200-function corpus and `edits`, cumulative (index, variant) pairs.
    Returns a function that writes version i (0 is the unedited corpus) to
    the source file and returns the request to reanalyze it."""
    src = str(tmp_path / "prog.mc")
    specs = [CorpusSpec(n_functions=200, seed=7)]
    for idx, variant in edits:
        specs.append(specs[-1].with_variant(idx, variant))

    def request(i):
        write(src, corpus_source(specs[i]))
        return json.dumps({"id": i, "method": "reanalyze", "path": src})

    return request


def _serve_stats(opts, texts, path):
    """The stats of one server's responses to a reanalysis of each of
    `texts`, written to `path` in turn."""
    def requests():
        for i, text in enumerate(texts):
            write(path, text)
            yield json.dumps({"id": i, "method": "reanalyze", "path": path})
        yield json.dumps({"method": "shutdown"})

    out = io.StringIO()
    assert cli.Server(opts).serve(requests(), out)
    return [json.loads(line)["result"]["stats"] for line in out.getvalue().splitlines()[:-1]]


def test_a_serve_no_op_walks_nothing(tmp_path):
    """Reanalyzing an unchanged program in memory evaluates no rhs, in the
    solver or in the walk, and walks no unknown."""
    opts = cli.Options(state_dir=str(tmp_path / "state"), stats=True)
    text = corpus_source(CorpusSpec(n_functions=100, seed=7).with_variant(3, "const:9"))
    first, again = _serve_stats(opts, [text, text], str(tmp_path / "prog.mc"))
    assert first["postprocess"]["walked"] > 100  # the first request analyzes it
    assert again["postprocess"] == {"reevaluated": 0, "reused": first["postprocess"]["reused"] +
                                    first["postprocess"]["reevaluated"], "evaluated": 0,
                                    "walked": 0}
    assert again["rhs_evals_total"] == first["rhs_evals_total"]


def _padded(n_pads, *variants):
    """A 20-function corpus, with `variants` of f003, and `n_pads` more
    functions that main calls through `pads`, after all the others."""
    spec = CorpusSpec(n_functions=20, seed=7)
    for variant in variants:
        spec = spec.with_variant(3, variant)
    text = corpus_source(spec)
    pads = "".join(f"int pad{i}(int p) {{\n  a = p + {i};\n  return a;\n}}\n\n"
                   for i in range(n_pads))
    calls = "".join(f"  r = pad{i}({i % 3});\n" for i in range(n_pads))
    text = text.replace("  return r;\n}\n", "  z = pads();\n  return r;\n}\n")
    return text.replace("int main() {", pads + f"int pads() {{\n{calls}  return 0;\n}}\n\n"
                        "int main() {")


def test_the_walk_after_an_edit_does_not_grow_with_the_program(tmp_path):
    """One `const` edit, served or reanalyzed on the command line against
    the program padded with 100 and with 1,000 functions that it does not
    touch, walks as many unknowns."""
    served, reanalyzed = [], []
    for n_pads in (100, 1000):
        opts = cli.Options(state_dir=str(tmp_path / f"state{n_pads}"), stats=True)
        stats = _serve_stats(opts, [_padded(n_pads), _padded(n_pads, "const:9")],
                             str(tmp_path / f"prog{n_pads}.mc"))
        assert stats[0]["postprocess"]["walked"] > n_pads
        served.append(stats[1]["postprocess"]["walked"])
        src = str(tmp_path / f"cli{n_pads}.mc")
        opts = cli.Options(state_dir=str(tmp_path / f"cli{n_pads}"), stats=True)
        for command, variants in ((cli.cmd_analyze, ()), (cli.cmd_reanalyze, ("const:9",))):
            write(src, _padded(n_pads, *variants))
            code, _, err = invoke(command, src, opts)
            assert code == 0
        reanalyzed.append(json.loads(err)["postprocess"]["walked"])
    assert served[0] == served[1] > 0
    assert reanalyzed == served


def test_the_save_and_the_split_after_an_edit_do_not_grow_with_the_program(tmp_path,
                                                                          monkeypatch):
    """A served `const` edit and then a `gval` edit, against the program
    padded with 100 and with 1,000 functions that they do not touch, log as
    many map rows and as many rows of σ and the sets for the save to visit,
    as many of which differ, and split as many characters of the source
    again.  The session a reanalysis returns keeps the counters, and the
    state those logs, not a copy of σ or of a set."""
    logged, rescanned, sigma_and_sets, differ, kept = [], [], [], [], []
    state_to_json, split = tdsolver.state_to_json, syntax._split
    run_reanalysis = cli.run_reanalysis

    def logging_state_to_json(then, state):
        if then:  # a journal record, not a base
            logs = {name: getattr(state, name).log for name in tdsolver.TABLES}
            logged.append(sum(len(logs[name] or ()) for name in tdsolver.MAPS))
            sigma_and_sets.append([len(logs[name]) for name in ("sigma", *tdsolver.SETS)])
            cut = logged_differences(state)
            differ.append([len(cut[name]) for name in ("sigma", *tdsolver.SETS)])
        return state_to_json(then, state)

    def kept_run_reanalysis(session, text, filename, opts):
        result = run_reanalysis(session, text, filename, opts)
        if result.session.then is not None:
            assert set(result.session.then["solver"]) == {"rhs_evals", "destabilizations"}
            state = result.session.state
            kept.append([len(getattr(state, name).log) for name in ("sigma", *tdsolver.SETS)])
        return result

    def counting_split(text, pos=0, line=1, stop=None):
        end = [len(text)]

        def watched(start, at):
            if stop(start, at):
                end[0] = start
                return True
            return False

        out = split(text, pos, line, None if stop is None else watched)
        if stop is not None:
            rescanned.append(end[0] - pos)
        return out

    monkeypatch.setattr(tdsolver, "state_to_json", logging_state_to_json)
    monkeypatch.setattr(syntax, "_split", counting_split)
    monkeypatch.setattr(cli, "run_reanalysis", kept_run_reanalysis)
    counts = []
    for n_pads in (100, 1000):
        del logged[:], rescanned[:], sigma_and_sets[:], differ[:], kept[:]
        opts = cli.Options(state_dir=str(tmp_path / f"state{n_pads}"), stats=True)
        stats = _serve_stats(opts, [_padded(n_pads), _padded(n_pads, "const:9"),
                                    _padded(n_pads, "const:9", "gval:17")],
                             str(tmp_path / f"prog{n_pads}.mc"))
        assert [s["persisted"]["kind"] for s in stats] == ["full", "delta", "delta"]
        assert kept == sigma_and_sets and len(kept) == 2
        assert max(n for sizes in kept for n in sizes) < 100  # logs, not copies
        assert differ == [[15, 12, 0], [13, 12, 0]]
        counts.append((list(logged), list(rescanned), list(sigma_and_sets)))
    assert counts[0] == counts[1]
    assert len(counts[0][0]) == len(counts[0][1]) == 2 and 0 < min(counts[0][0] + counts[0][1])


class _CountedRows:
    """A map as the restart selection reads it, counting the rows it visits."""

    def __init__(self, rows, visits):
        self.rows, self.visits = rows, visits

    def get(self, key, default=None):
        self.visits[-1] += 1
        return self.rows.get(key, default)

    def items(self):
        for item in self.rows.items():
            self.visits[-1] += 1
            yield item


def test_the_restart_selection_after_an_edit_does_not_grow_with_the_program(tmp_path,
                                                                          monkeypatch):
    """A served `gval` edit, against the program padded with 100 and with
    1,000 functions that it does not touch, visits as many rows of
    ``side_infl`` to select the globals to restart, and selects one."""
    visits, selected = [], []
    select = increment.select_restart_globals

    def counting_select(changes, st, *args):
        visits.append(0)
        rows, st.side_infl = st.side_infl, _CountedRows(st.side_infl, visits)
        try:
            selected.append(select(changes, st, *args))
        finally:
            st.side_infl = rows
        return selected[-1]

    monkeypatch.setattr(increment, "select_restart_globals", counting_select)
    counts = []
    for n_pads in (100, 1000):
        opts = cli.Options(state_dir=str(tmp_path / f"state{n_pads}"), stats=True)
        _serve_stats(opts, [_padded(n_pads), _padded(n_pads, "gval:17")],
                     str(tmp_path / f"prog{n_pads}.mc"))
        assert len(selected[-1]) == 1
        counts.append(visits[-1])
    assert counts[0] == counts[1] > 0


def test_serve_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    """With the collector off, neither the young collection after each
    response nor a full one at the end finds garbage: not after edits that
    restart globals, nor after an error response of any kind."""
    sd = str(tmp_path / "state")
    request = _serve_corpus(tmp_path, [(100, "sum"), (17, "gval:17"), (9, "const:9"),
                                       (4, "extra:4"), (24, "gval:3"), (60, "sum")])
    bad = {"digit": "int g = ²;\nint main() { return g; }\n",
           "nested": "int main() { x = " + "(" * 3000 + "1" + ")" * 3000 + "; return x; }\n"}
    for name, text in bad.items():
        write(str(tmp_path / f"{name}.mc"), text)
    bundle = os.path.join(sd, "bundle.json")

    def requests():
        for i in range(7):  # the analyze, then six edits
            yield request(i)
        yield "{not json"
        yield json.dumps({"id": "list", "method": "reanalyze", "path": ["prog.mc"]})
        yield json.dumps({"id": "missing", "method": "reanalyze",
                          "path": str(tmp_path / "missing.mc")})
        for name in bad:
            yield json.dumps({"id": name, "method": "reanalyze",
                              "path": str(tmp_path / f"{name}.mc")})
        intact = open(bundle).read()
        write(bundle, intact[:len(intact) // 2])  # a failed request drops the session
        yield json.dumps({"id": "corrupt", "method": "warnings"})
        write(bundle, intact)
        with monkeypatch.context() as m:
            m.setattr(postproc, "check_unknown", lambda *a: ["injected violation"])
            yield request(5)
        yield request(6)
        yield json.dumps({"method": "shutdown"})

    out = io.StringIO()
    with _collector_off() as freed:
        assert cli.Server(cli.Options(state_dir=sd)).serve(requests(), out)
    responses = [json.loads(l) for l in out.getvalue().splitlines()]
    assert all("result" in r for r in responses[:7] + responses[-2:])
    errors = [r["error"] for r in responses[7:-2]]
    assert len(errors) == 7
    assert "state bundle" in errors[-2] and "verification failed" in errors[-1]
    assert len(freed) == len(responses) + 1 and set(freed) == {0}


def test_serve_memory_stays_level_over_thirty_requests(tmp_path):
    """The tracked objects after each request stay within a fixed bound of
    those after the first: nothing a request replaces outlives it, although
    only the youngest generation is ever collected."""
    sd = str(tmp_path / "state")
    request = _serve_corpus(tmp_path, [(i * 37 % 200, "sum" if i % 2 else f"const:{i + 1}")
                                       for i in range(29)])
    counts = []

    def requests():
        for i in range(30):
            yield request(i)
            counts.append(len(gc.get_objects()))
        yield json.dumps({"method": "shutdown"})

    with _collector_off():
        assert cli.Server(cli.Options(state_dir=sd)).serve(requests(), io.StringIO())
    assert len(counts) == 30
    assert max(abs(c - counts[0]) for c in counts) < 2000, counts


def _without_f030(text):
    """`text` without the function f030 and its call in main."""
    blocks = [b for b in text.split("\n\n") if not b.startswith("int f030(")]
    return "\n\n".join(blocks).replace("  r = f030(0);\n", "")


def _lockstep_versions():
    """A 40-function corpus, then: two value-changing edits, an `extra:`
    edit that shifts the lines of every function below it, a syntax error,
    a valid edit, the removal of f030 and one more edit."""
    spec = CorpusSpec(n_functions=40, seed=7)
    versions = [corpus_source(spec)]
    for idx, variant in ((5, "const:9"), (3, "gval:17"), (10, "extra:4")):
        spec = spec.with_variant(idx, variant)
        versions.append(corpus_source(spec))
    versions.append(versions[-1].replace("  a = p + 1", "  a = p + ;", 1))
    spec = spec.with_variant(20, "const:3")
    versions.append(corpus_source(spec))
    versions.append(_without_f030(versions[-1]))
    spec = spec.with_variant(2, "const:5")
    versions.append(_without_f030(corpus_source(spec)))
    return versions


# Functions parsed per request by a server that loaded its state from the
# bundle: all 41 at first, the edited one after a single-function edit, 31
# after the `extra:` edit of f010 (it and every function below it moved),
# all 41 again after the failed request (the server reloads the bundle),
# and main plus the 9 functions below f030 after its removal.
SERVE_PARSED = [41, 1, 31, 41, 10, 1]


def test_serve_works_in_lockstep_with_cli_reanalyze(tmp_path):
    """A CLI reanalyze chain and one server on the same versions give the
    same responses and persist the same state after every request, while
    the server parses only what moved and leaves no cyclic garbage."""
    base, *edits = _lockstep_versions()
    assert len(edits) == 7
    src = str(tmp_path / "prog.mc")
    cli_dir, serve_dir = str(tmp_path / "cli"), str(tmp_path / "serve")

    def bundle_text(state_dir):
        doc = bundle_of(state_dir)
        doc.pop("created_at")
        return json.dumps(doc)

    write(src, base)
    cli_runs, cli_bundles = [], []
    for sd in (cli_dir, serve_dir):
        assert invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))[0] == 0
    for text in edits:
        write(src, text)
        cli_runs.append(invoke(cli.cmd_reanalyze, src, cli.Options(state_dir=cli_dir, stats=True)))
        cli_bundles.append(bundle_text(cli_dir))
    assert [code for code, _, _ in cli_runs] == [0, 0, 0, 2, 0, 0, 0]
    assert [json.loads(err)["parsed"] for code, _, err in cli_runs if code == 0] == \
        [41, 41, 41, 41, 40, 40]

    serve_bundles = []

    def requests():
        for i, text in enumerate(edits):
            write(src, text)
            yield json.dumps({"id": i, "method": "reanalyze", "path": src})
            serve_bundles.append(bundle_text(serve_dir))
        yield json.dumps({"method": "shutdown"})

    out = io.StringIO()
    with _collector_off() as freed:
        assert cli.Server(cli.Options(state_dir=serve_dir, stats=True)).serve(requests(), out)
    assert set(freed) == {0}
    responses = [json.loads(line) for line in out.getvalue().splitlines()[:-1]]
    parsed = []
    for response, (code, stdout, stderr) in zip(responses, cli_runs):
        if code == 2:
            assert response["error"] == stderr.strip().removeprefix("error: ")
            continue
        stats, cli_stats = response["result"].pop("stats"), json.loads(stderr)
        parsed.append(stats.pop("parsed"))
        assert stats["postprocess"].pop("walked") <= cli_stats["postprocess"].pop("walked")
        assert stats == {"rhs_evals_total": cli_stats["rhs_evals_total"],
                         "destabilizations_total": cli_stats["destabilizations_total"],
                         "diagnostics": cli_stats["run"]["diagnostics"],
                         "postprocess": cli_stats["postprocess"],
                         "persisted": cli_stats["persisted"]}
        assert json.dumps(response["result"]) == json.dumps(json.loads(stdout))
    assert parsed == SERVE_PARSED
    assert serve_bundles == cli_bundles


@pytest.mark.parametrize("command", ["analyze", "reanalyze", "compare", "serve"])
def test_the_command_line_defaults_are_the_option_defaults(monkeypatch, command):
    seen = []
    for name in ("cmd_analyze", "cmd_reanalyze", "cmd_compare"):
        monkeypatch.setattr(cli, name, lambda path, opts: seen.append(opts) or 0)
    monkeypatch.setattr(cli, "cmd_serve", lambda opts, socket_path: seen.append(opts) or 0)
    assert cli.main([command] if command == "serve" else [command, "p.mc"]) == 0
    assert seen == [cli.Options()]


@pytest.mark.parametrize("command,flags", [("compare", ["--mode", "plain"]),
                                           ("compare", ["--stats"]),
                                           ("serve", ["--fail-on-warn"]),
                                           ("analyze", ["--mode", "plain"]),
                                           ("analyze", ["--restart", "off"])])
def test_a_flag_the_command_does_not_read_is_a_usage_error(monkeypatch, capsys, command, flags):
    """compare reads only --wpoint-restart, --domain and --state-dir, serve
    every flag but --fail-on-warn, and analyze every flag but --mode and
    --restart."""
    for name in ("cmd_analyze", "cmd_compare", "cmd_serve"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("the command ran"))
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *([] if command == "serve" else ["p.mc"]), *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_the_command_with_the_collector_off(ws, monkeypatch, enabled):
    """A command runs with the collector off; `main` restores the state it
    found, also when the command raises."""
    src, sd = ws
    seen = []

    def command(path, opts):
        seen.append(gc.isenabled())
        if len(seen) == 2:
            raise KeyboardInterrupt
        return 0

    monkeypatch.setattr(cli, "cmd_analyze", command)
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["analyze", src, "--state-dir", sd]) == 0
        assert gc.isenabled() is enabled
        with pytest.raises(KeyboardInterrupt):
            cli.main(["analyze", src, "--state-dir", sd])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
