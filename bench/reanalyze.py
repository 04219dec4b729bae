"""Replay of `serve` reanalysis requests in one process, reported per edit kind.

    python3 bench/reanalyze.py --label "what was measured"  # appends to BENCH_reanalyze.json

For each corpus size n in `SIZES` (``CorpusSpec(n, SEED)``) one `cli.Server`
answers, with the cyclic collector off as in `minicheck serve`: a first
request, which analyzes the corpus from scratch, then `REQUESTS`
reanalysis requests, one per edit of perfbench's `EditChain`, whose edits
alternate `const` and `gval` (both drawn with the seed).  The two kinds
cost very differently, so each is reported apart: the median wall time of
its requests (one request, from the request line to its response,
collection of the youngest generation included), and the median and the
sum of its deterministic counters: the rhs evaluations and the
destabilizations each request made, the unknowns the post-solve walk
evaluated and reused, and the functions it parsed.
The first request is reported as "analyze".

An entry also records the Python version, the number of CPUs and the lines
of the measured `minicheck` package: this repository's, unless PYTHONPATH
names another source tree.  Two runs with the same seed give the same
counters; the times vary with the host.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ("rhs_evals", "destabilizations", "evaluated", "reused", "parsed")
KINDS = ("const", "gval")
SIZES, REQUESTS, SEED = [200, 800], 40, 1
OUT = ROOT / "BENCH_reanalyze.json"


def _request(server, path: str, rid: int) -> dict:
    """One reanalysis request to `server`: its wall time and counters."""
    out = io.StringIO()
    line = json.dumps({"id": rid, "method": "reanalyze", "path": path}) + "\n"
    t0 = time.perf_counter()
    server.serve(io.StringIO(line), out)
    wall = time.perf_counter() - t0
    response = json.loads(out.getvalue())
    if "result" not in response:
        raise RuntimeError(f"request {rid} failed: {response.get('error')}")
    stats = response["result"]["stats"]
    return {"wall_s": wall, "rhs_evals_total": stats["rhs_evals_total"],
            "destabilizations_total": stats["destabilizations_total"],
            "evaluated": stats["postprocess"]["evaluated"],
            "reused": stats["postprocess"]["reused"], "parsed": stats["parsed"]}


def _summary(requests: List[dict]) -> dict:
    """The median wall time of `requests` and the median and the sum of
    each counter."""
    return {"requests": len(requests),
            "wall_p50_s": round(statistics.median(r["wall_s"] for r in requests), 6),
            "counters": {c: {"p50": statistics.median(r[c] for r in requests),
                             "sum": sum(r[c] for r in requests)} for c in COUNTERS}}


def measure_size(n: int, requests: int, seed: int, work: str) -> Dict[str, dict]:
    """The analyze and the `requests` edit requests at corpus size `n`, in
    `work`, summarized by kind."""
    from minicheck import cli
    from minicheck.corpus import CorpusSpec, corpus_source
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from run import EditChain

    spec = CorpusSpec(n, seed)
    path = os.path.join(work, "prog.mc")
    server = cli.Server(cli.Options(state_dir=os.path.join(work, "state"), stats=True))
    chain = EditChain(spec, KINDS, seed)
    by_kind: Dict[str, List[dict]] = {"analyze": []}
    totals = {"rhs_evals_total": 0, "destabilizations_total": 0}
    for i in range(requests + 1):
        source, kind = (corpus_source(spec), "analyze") if i == 0 else \
            (chain.next()[0], KINDS[(i - 1) % len(KINDS)])
        with open(path, "w") as f:
            f.write(source)
        r = _request(server, path, i)
        r["rhs_evals"] = r["rhs_evals_total"] - totals["rhs_evals_total"]
        r["destabilizations"] = r["destabilizations_total"] - totals["destabilizations_total"]
        totals = r
        by_kind.setdefault(kind, []).append(r)
    return {kind: _summary(rs) for kind, rs in by_kind.items()}


def package_lines() -> int:
    """The lines of the `minicheck` package that is measured."""
    import minicheck
    package = Path(minicheck.__file__).resolve().parent
    return sum(len(p.read_text().splitlines()) for p in sorted(package.rglob("*.py")))


def measure(sizes: List[int], requests: int, seed: int, label: str = "") -> dict:
    """One entry: every size in `sizes`, each in a temporary directory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = {}
        for n in sizes:
            with tempfile.TemporaryDirectory(prefix="bench-reanalyze-") as work:
                out[str(n)] = measure_size(n, requests, seed, work)
    finally:
        if enabled:
            gc.enable()
    return {"label": label, "python": platform.python_version(), "nproc": os.cpu_count(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "minicheck_lines": package_lines(), "seed": seed, "requests": requests,
            "sizes": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", default="", help="what the entry measures")
    ns = p.parse_args(argv)
    sys.path.append(str(ROOT / "src"))
    entry = measure(SIZES, REQUESTS, SEED, ns.label)
    print(json.dumps(entry, indent=1))
    try:
        with open(OUT) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {"bench": "bench/reanalyze.py", "entries": []}
    doc["entries"].append(entry)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
