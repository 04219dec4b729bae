import collections
import contextlib
import gc
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

from minicheck import cli, consys, postproc, tdsolver
from minicheck.consys import MAIN, Context, GlobalVar, NodeCtx
from minicheck.corpus import CorpusSpec, corpus_source
from minicheck.domains import LocalState, ValueSet
from minicheck.minic import parse, system
from minicheck.tdsolver import state_from_json

from support import FIG2, FIG2_EDIT


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
    with open(os.path.join(state_dir, "bundle.json")) as f:
        return json.load(f)


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
    evals_before = bundle_of(sd)["solver"]["counters"]["rhs_evals"]
    code, out, err = invoke(cli.cmd_reanalyze, src, cli.Options(state_dir=sd, stats=True))
    assert code == 0
    diff = json.loads(out)
    assert diff["added"] == [] and diff["removed"] == []
    assert [w["id"] for w in diff["kept"]] == [w["id"] for w in json.loads(warn0)]
    assert bundle_of(sd)["solver"]["counters"]["rhs_evals"] == evals_before
    # nothing changed, so the post-solve walk evaluates no rhs
    assert json.loads(err)["postprocess"] == {"reevaluated": 0, "reused": 8, "evaluated": 0}


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
    st = state_from_json(bundle_of(sd)["solver"])
    assert st.sigma[GlobalVar("g")] == ValueSet.of([0, 1, 2])


def test_reanalyze_with_minimal_restart_recovers_precision(ws):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, FIG2_EDIT)
    code, out, _ = invoke(cli.cmd_reanalyze, src,
                          cli.Options(state_dir=sd, restart="minimal"))
    assert code == 0
    st = state_from_json(bundle_of(sd)["solver"])
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


def _format_1_bundle(sd):
    path = os.path.join(sd, "bundle.json")
    doc = bundle_of(sd)
    doc["format"] = 1
    write(path, json.dumps(doc))


@pytest.mark.parametrize("command", [cli.cmd_reanalyze, cli.cmd_compare])
def test_format_1_bundle_is_refused(ws, command):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    _format_1_bundle(sd)
    code, out, err = invoke(command, src, cli.Options(state_dir=sd))
    assert code == 2 and out == ""
    assert err.startswith("error: state bundle format 1 is not supported")
    assert "delete the state dir" in err and "Traceback" not in err


def test_serve_answers_a_format_1_bundle_with_an_error(ws):
    src, sd = ws
    write(src, FIG2)
    opts = cli.Options(state_dir=sd)
    invoke(cli.cmd_analyze, src, opts)
    _format_1_bundle(sd)
    responses = serve_lines(opts, [
        json.dumps({"id": 1, "method": "reanalyze", "path": src}),
        json.dumps({"id": 2, "method": "warnings"}),
        json.dumps({"method": "shutdown"}),
    ])
    assert [r["id"] for r in responses[:2]] == [1, 2]
    for r in responses[:2]:
        assert r["error"].startswith("state bundle format 1 is not supported")
        assert "delete the state dir" in r["error"]


def test_reanalyze_parses_only_the_new_source(ws, monkeypatch):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    write(src, FIG2_EDIT)
    parsed = []
    original = cli.parse

    def counting(text):
        parsed.append(text)
        return original(text)

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
    assert doc["format"] == cli.BUNDLE_FORMAT == 2
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    assert doc["digests"] == parse(FIG2).digests


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
                                    "no-global-names"])
@pytest.mark.parametrize("command", [cli.cmd_reanalyze, cli.cmd_compare])
def test_damaged_bundle_exits_two_with_an_error(ws, command, damage):
    src, sd = ws
    write(src, FIG2)
    invoke(cli.cmd_analyze, src, cli.Options(state_dir=sd))
    path = os.path.join(sd, "bundle.json")
    text = open(path).read()
    if damage == "truncated":
        text = text[:len(text) // 2]
    elif damage == "not-json":
        text = "[1, 2"
    elif damage == "missing-key":
        doc = json.loads(text)
        del doc["solver"]
        text = json.dumps(doc)
    elif damage == "no-global-names":  # as a bundle written before they were recorded
        doc = json.loads(text)
        del doc["digests"]["globals"]
        text = json.dumps(doc)
    else:
        doc = json.loads(text)
        doc["digests"]["functions"]["main"] = "?"
        text = json.dumps(doc)
    write(path, text)
    code, out, err = invoke(command, src, cli.Options(state_dir=sd))
    assert code == 2
    assert out == ""
    assert err.startswith("error: state bundle") and "Traceback" not in err


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
    doc["nodes"]["assign"]["f000"].pop()
    write(os.path.join(sd, "bundle.json"), json.dumps(doc))
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
    doc["nodes"]["assign"]["h"] = []
    write(os.path.join(sd, "bundle.json"), json.dumps(doc))
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
    assert [r.pop("stats") for r in results] == \
        [{"rhs_evals_total": s["rhs_evals_total"],
          "destabilizations_total": s["destabilizations_total"],
          "diagnostics": s["run"]["diagnostics"]} for s in cli_stats]
    assert results == cli_diffs
    assert len(loads) == 1
    serve_bundle = bundle_of(serve_dir)
    cli_bundle.pop("created_at"), serve_bundle.pop("created_at")
    assert json.dumps(serve_bundle) == json.dumps(cli_bundle)
    assert os.listdir(serve_dir) == ["bundle.json"]


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
    """Call `action(sys_, state)` each time `tdsolver.run` returns."""
    original = tdsolver.run

    def run(sys_, state, *args, **kwargs):
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

    def counting_eval_tree(tree, lookup, state=None):
        if solved:
            counts[owner[id(tree)][1]] += 1
        return evaluate(tree, lookup, state)

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
    superstable after a reanalysis; after an analyze, which reuses nothing,
    every stable one."""
    return sorted((u for u in state.superstable or state.stable
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
    (3508, 4055, 0, 3508, 1388, 0, 1388),
    (3512, 4058, 4, 0, 4, 1384, 5),
    (4465, 5129, 7, 946, 237, 1151, 237),
    (4662, 5327, 4, 193, 197, 1191, 197),
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
