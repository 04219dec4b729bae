"""Record the benchmark's metadata in perfbench/metadata.json.

    python3 perfbench/record.py

For each workload it makes, with seed 1 and BENCHMARK.json's
``run_seconds``, one untraced run (for the sample count of each end-to-end
metric) and two traced runs under PYTHONHASHSEED 1 and 2.  A per-op count
repeats exactly when both traced runs agree on it for every op index that
both ran; later changes may gate on the counts that do.
"""

import json
import os
import platform
import sys

import run
import tracing

COUNTS = sorted(tracing.COUNT_METRICS) + ["bundle_bytes"]
SEED = 1


def _op_counts(bench) -> dict:
    return {o.index: {**{k: o.layers.get(k) for k in tracing.COUNT_METRICS},
                      "bundle_bytes": o.bundle_bytes}
            for o in bench.ops if o.layers}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    with open(run.ROOT / "BENCHMARK.json") as f:
        run_seconds = json.load(f)["run_seconds"]
    workloads = {}
    for name, why in run.WORKLOADS.items():
        plain = run.run_workload(name, SEED, run_seconds, trace=False)
        per_op = []
        for hash_seed in ("1", "2"):
            os.environ["PYTHONHASHSEED"] = hash_seed
            per_op.append(_op_counts(run.run_workload(name, SEED, run_seconds, trace=True)))
        del os.environ["PYTHONHASHSEED"]
        shared = sorted(per_op[0].keys() & per_op[1].keys())
        repeats = {c: all(per_op[0][i][c] == per_op[1][i][c] for i in shared) for c in COUNTS}
        workloads[name] = {
            "why": why,
            "op": run.OP_NAME[name],
            "edit_kinds": list(run.EDIT_KINDS[name]),
            "samples_per_run": {"setup_s": len(plain.setups), "op_p50_s": len(plain.ops),
                                "peak_rss_mib": len(plain.records), "bundle_mib": 1},
            "determinism": {
                "op_indices_compared": shared,
                "repeats_exactly": sorted(c for c in COUNTS if shared and repeats[c]),
                "differs": sorted(c for c in COUNTS if not repeats[c]),
                "counts_per_op": {i: per_op[0][i] for i in shared},
            },
            "correct": plain.result()["correct"],
        }
        print(f"{name}: {workloads[name]['samples_per_run']} "
              f"{workloads[name]['determinism']['differs']}", flush=True)
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "corpus": f"CorpusSpec({run.N_FUNCTIONS}, seed) from minicheck.corpus",
        "seed": SEED,
        "run_seconds": run_seconds,
        "hash_seeds": ["1", "2"],
        "load": "closed loop, one client, one op at a time",
        "setups_per_run": run.SETUPS,
        "tail_percentile": None,
        "tail_note": "reanalyze_tail_s is not reported: the highest percentile with at "
                     "least 10 samples beyond it needs at least 11 ops in a run, and a run "
                     "of run_seconds holds the op counts in samples_per_run",
        "workloads": workloads,
    }
    with open(run.BENCH_DIR / "metadata.json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
