"""`bench/reanalyze.py`, the in-process replay of `serve` requests, at a
small corpus size."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "reanalyze.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_reanalyze", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_with_the_same_seed_give_the_same_counters():
    bench = _bench()
    entries = [bench.measure([40], 6, seed=1) for _ in range(2)]
    counters = [{kind: summary["counters"] for kind, summary in entry["sizes"]["40"].items()}
                for entry in entries]
    assert counters[0] == counters[1]
    sizes = entries[0]["sizes"]["40"]
    assert {kind: summary["requests"] for kind, summary in sizes.items()} == \
        {"analyze": 1, "const": 3, "gval": 3}
    assert all(set(c) == set(bench.COUNTERS) for c in counters[0].values())
    assert counters[0]["analyze"]["parsed"]["sum"] == 41  # the 40 functions and main
    assert counters[0]["const"]["rhs_evals"]["sum"] > 0
    assert entries[0]["minicheck_lines"] == bench.package_lines() > 0
