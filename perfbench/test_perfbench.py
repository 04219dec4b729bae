"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

import pytest

import check
import run
import tracing

sys.path.insert(0, str(run.SRC))

from minicheck.corpus import CorpusSpec, corpus_source  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    source = corpus_source(CorpusSpec(60, 7))
    return source, check.expected_races(source)


def _warnings(expected, filename="prog.mc"):
    return [{"id": g, "kind": "race", "message": f"possible data race on global '{g}'",
             "locations": [{"file": filename, "line": n, "col": 3} for n in lines]}
            for g, lines in expected.items()]


def test_expected_races_cover_every_global_at_n800():
    expected = check.expected_races(corpus_source(CorpusSpec(800, 7)))
    assert sorted(expected) == ["g0", "g1", "g2", "g3"]


def test_checker_accepts_the_known_answer(corpus):
    _, expected = corpus
    assert check.check_analyze(0, json.dumps(_warnings(expected)), expected, "prog.mc") == []
    diff = {"added": [], "removed": [], "kept": _warnings(expected),
            "changes": {"changed": ["f003"], "header_changed": [], "added": [], "removed": []}}
    assert check.check_reanalyze(0, json.dumps(diff), expected, "prog.mc", "f003") == []


def test_checker_counts_corrupted_output_as_failure(corpus):
    _, expected = corpus
    dropped = _warnings(expected)[1:]
    assert check.check_analyze(0, json.dumps(dropped), expected, "prog.mc")
    assert check.check_analyze(2, json.dumps(_warnings(expected)), expected, "prog.mc")
    assert check.check_analyze(0, "Traceback (most recent call last):", expected, "prog.mc")
    moved = _warnings(expected)
    moved[0]["locations"][0]["line"] += 1
    assert check.check_analyze(0, json.dumps(moved), expected, "prog.mc")
    diff = {"added": _warnings(expected)[:1], "removed": [], "kept": _warnings(expected),
            "changes": {"changed": ["f003", "f004"], "header_changed": [], "added": [],
                        "removed": []}}
    assert len(check.check_reanalyze(0, json.dumps(diff), expected, "prog.mc", "f003")) == 2
    response = json.dumps({"id": 4, "error": "boom"})
    assert check.check_serve_reanalyze(response, 4, expected, "prog.mc")
    assert check.check_compare(0, json.dumps({"total": 5, "finer": 1, "incomparable": 0}))


def test_a_failed_op_and_a_hang_are_counted(monkeypatch):
    bench = run.Bench("edit-local", 1, 60, trace=False)
    bench.setups = [1.0]
    try:
        def op(index):
            if index == 2:
                raise run.Fatal("analyze timed out")
            problems = check.check_analyze(2 if index == 1 else 0, "[]", {}, "prog.mc")
            return run.Op(index, 0.0, 10.0, problems)

        monkeypatch.setattr(bench, "op", op)
        bench.measure()
    finally:
        bench.close()
    # op 0 passes, op 1 exits 2, op 2 hangs: the rest of the 60 s window
    # (about 6 ops of 10 s) counts as failed as well
    assert bench.ops[0].problems == [] and bench.ops[1].problems
    assert bench.failed == bench.attempted - 1 and bench.attempted >= 8
    assert not bench.result()["correct"]


def test_edit_chain_changes_one_function_per_edit():
    spec = CorpusSpec(60, 3)
    chain = run.EditChain(spec, ("const", "gval"), seed=5)
    before = run._function_blocks(corpus_source(spec))
    for _ in range(6):
        source, edited = chain.next()
        after = run._function_blocks(source)
        assert [f for f in after if after[f] != before[f]] == [edited]
        before = after


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "postproc.postprocess", "parent": None, "t0": 0.0, "t1": 1.0,
         "counts": {"reevaluated": 3, "reused": 1, "sigma_unknowns": 9}, "overhead": 0.01},
        {"name": "increment.reachable_set", "parent": 0, "t0": 0.1, "t1": 0.4, "counts": {},
         "overhead": 0.02},
        {"name": "increment.prune", "parent": 0, "t0": 0.5, "t1": 0.6, "counts": {},
         "overhead": 0.03},
    ]
    m = tracing.op_metrics(spans, [0, 1, 2], [], wall=1.5, install_s=0.004)
    assert m["postproc.postprocess_s"] == pytest.approx(0.6)
    assert m["increment.reachable_set_s"] == pytest.approx(0.3)
    assert m["postproc.reuse_ratio"] == pytest.approx(0.25)
    assert m["tdsolver.rhs_evals"] == 0
    assert m["cli.outside_spans_s"] == pytest.approx(0.5)
    assert m["trace.overhead_s"] == pytest.approx(0.064)
    # a serve request selects the spans of its own time window
    m = tracing.op_metrics(spans, [1, 2], [], wall=0.7)
    assert m["cli.outside_spans_s"] == pytest.approx(0.3)
    assert m["postproc.postprocess_s"] == 0


def test_traced_analyze_records_every_layer(tmp_path):
    (tmp_path / "p.mc").write_text(corpus_source(CorpusSpec(30, 7)))
    env = dict(os.environ, PERFBENCH_TRACE="1", PERFBENCH_RECORD=str(tmp_path / "r.json"))
    proc = subprocess.run([sys.executable, str(run.LAUNCH), "analyze", "p.mc",
                           "--state-dir", "st"], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "r.json").read_text())
    assert record["missing"] == [] and record["maxrss_kb"] > 0
    spans = record["spans"]
    assert all(0 < s["overhead"] < s["t1"] - s["t0"] + 0.01 for s in spans)
    assert 0 < record["install_s"] < 0.5
    names = {s["name"] for s in spans}
    assert {"cli.main", "syntax.parse", "tdsolver.run", "postproc.postprocess",
            "cli.save_bundle", "tdsolver.state_to_json"} <= names
    # postproc calls reachable_set through its own import of the name
    reach = [s for s in spans if s["name"] == "increment.reachable_set"]
    assert reach and spans[reach[0]["parent"]]["name"] == "postproc.postprocess"


def test_a_vanished_target_is_listed_missing():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import minicheck.cli, minicheck.increment as inc, tracing\n"
            "del inc.prune\n"
            "t = tracing.Tracer(); tracing.install(t); print(t.missing)\n")
    out = subprocess.run([sys.executable, "-c", code, str(run.SRC), str(run.BENCH_DIR)],
                         capture_output=True, text=True, check=True).stdout
    assert "increment.prune" in out
    assert "increment.prune_s" in tracing.missing_metrics(["increment.prune"])
