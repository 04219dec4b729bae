"""Benchmark of minicheck on an 800-function generated corpus.

    python3 perfbench/run.py --workload edit-local --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one row each

Each run is a closed loop with one client: the next op starts only after
the previous one has finished.  Inputs come from ``minicheck.corpus``
(``CorpusSpec(800, seed)``, edits drawn with the same seed); the analyzer
only ever sees generated source files, through its real command line
(launch.py), with PYTHONHASHSEED=0 unless the environment sets it.
Workloads:

  scratch       one fresh `minicheck analyze` process per op, into an empty
                state dir
  edit-local    after an analyze in set-up, a chain of value-preserving edits
                (`sum`, `extra:k`), each followed by one fresh
                `minicheck reanalyze --stats --explain-diff` process
  serve-ripple  one long-lived `minicheck serve` process on stdio; after an
                analyze in set-up, one `reanalyze` request per
                value-changing edit, alternating `const:k` and `gval:v`

Every op's output is checked against a known answer (check.py), and at the
end of the run, outside timing, `minicheck compare` must find the persisted
state no less sound than a from-scratch run.  An op that fails counts in
``failed``; one that hangs past its timeout, or a `serve` process that
dies, ends the measuring and counts the ops the rest of the window would
have held as failed too.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` it holds the per-layer metrics
instead: every measured op runs traced (tracing.py), and each metric is
the median over the ops; ``trace.overhead_s`` is the time the tracer's own
wrappers took.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import check
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCH = BENCH_DIR / "launch.py"
WORK_ROOT = ROOT / ".perfbench"

N_FUNCTIONS = 800
SETUPS = 3          # set-ups per run; setup_s is their median
OP_TIMEOUT_S = 45   # ~10x a normal op: an op that takes longer has hung
RUN_LIMIT_S = 170   # every wait ends by then, so that a run exits within 180 s
PROG = "prog.mc"
STATE = "state"
MIB = 1024 * 1024

WORKLOADS = {
    "scratch": "fresh analyze per op: solver, verification, postprocessing and "
               "persistence do all the work; diffing, restarting and reuse are bypassed",
    "edit-local": "CLI reanalyze after value-preserving edits: a handful of rhs "
                  "evaluations, so whole-program passes (parse, bundle load/save, "
                  "verify, reachability, postprocess) dominate",
    "serve-ripple": "serve requests after value-changing edits: hundreds to "
                    "thousands of rhs evaluations, destabilization ripples, "
                    "restarts of globals and low warning reuse",
}
# edit kinds of each workload, applied in turn
EDIT_KINDS = {"scratch": (), "edit-local": ("sum", "extra"), "serve-ripple": ("const", "gval")}
OP_NAME = {"scratch": "CLI analyze", "edit-local": "CLI reanalyze",
           "serve-ripple": "serve reanalyze"}

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mib": "MiB", "bundle_mib": "MiB"}


class SetupError(Exception):
    """The workload could not be set up; the run prints no result."""


class Fatal(Exception):
    """An op hung or the server died; measuring stops."""


@dataclass
class Op:
    index: int
    t0: float
    t1: float
    problems: List[str]
    bundle_bytes: int = 0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def _function_blocks(source: str) -> Dict[str, str]:
    out = {}
    for block in source.split("\n\n"):
        m = re.match(r"\w+\*? (\w+)\(", block)
        out[m.group(1) if m else "<declarations>"] = block
    return out


class EditChain:
    """Cumulative single-function edits drawn from `seed`; each is checked to
    change the text of exactly one function, hence its normalized AST."""

    def __init__(self, spec, kinds, seed: int):
        from minicheck.corpus import corpus_source
        self._corpus_source = corpus_source
        self.spec = spec
        self.kinds = kinds
        self.rng = random.Random(seed)
        self.blocks = _function_blocks(corpus_source(spec))
        self.count = 0

    def _variant(self, kind: str) -> str:
        if kind == "sum":
            return "sum"
        if kind == "extra":
            return f"extra:{self.rng.randrange(1, 20)}"
        if kind == "const":
            return f"const:{self.rng.randrange(1, 50)}"
        return f"gval:{self.rng.randrange(0, 30)}"

    def next(self):
        """The edited source and the name of the edited function."""
        kind = self.kinds[self.count % len(self.kinds)]
        self.count += 1
        while True:
            idx = self.rng.randrange(self.spec.n_functions)
            name = f"f{idx:03d}"
            if kind == "gval" and "lock(" not in self.blocks[name]:
                continue  # only functions that write a global have a gval
            spec = self.spec.with_variant(idx, self._variant(kind))
            source = self._corpus_source(spec)
            blocks = _function_blocks(source)
            changed = sorted(f for f in blocks.keys() | self.blocks.keys()
                             if blocks.get(f) != self.blocks.get(f))
            if changed == [name]:
                self.spec, self.blocks = spec, blocks
                return source, name
            if changed:
                raise RuntimeError(f"edit {spec.variants[-1]} changed {changed}")


class Server:
    """A `minicheck serve` process on stdio."""

    def __init__(self, bench: "Bench", traced: bool):
        self.bench = bench
        self.record_path, env = bench.child_env(traced)
        self.stderr = open(bench.work / f"serve-{bench.children}.err", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), "serve", "--state-dir", STATE],
            cwd=bench.work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, bufsize=0)
        self.buf = b""
        self.record: Optional[dict] = None

    def request(self, doc: dict):
        """Send one request; returns (response line, sent at, answered at)."""
        if self.proc.poll() is not None:
            raise Fatal(f"serve exited with code {self.proc.returncode}")
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write((json.dumps(doc) + "\n").encode())
        except BrokenPipeError:
            raise Fatal("serve closed its input") from None
        end = t0 + self.bench.timeout()
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0:
                raise Fatal(f"serve request {doc.get('method')} timed out")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise Fatal(f"serve closed its output (exit code {self.proc.wait()})")
                self.buf += chunk
        t1 = time.perf_counter()
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode(), t0, t1

    def close(self) -> Optional[dict]:
        """Shut the server down, wait for it and return its exit record."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"id": 0, "method": "shutdown"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=self.bench.timeout())
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        self.record = self.bench.read_record(self.record_path)
        return self.record


class Bench:
    """One run of one workload, in its own work dir under the checkout."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        from minicheck.corpus import CorpusSpec
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.spec = CorpusSpec(N_FUNCTIONS, seed)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.children = 0
        self.server: Optional[Server] = None
        self.records: List[dict] = []   # exit records of processes that ran measured ops
        self.setups: List[float] = []
        self.ops: List[Op] = []
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        self.compare_problems: List[str] = []
        self.missing: List[str] = []
        self.expected: Dict[str, List[int]] = {}

    # -- processes ---------------------------------------------------------

    def timeout(self) -> float:
        return max(0.1, min(OP_TIMEOUT_S, self.deadline - time.perf_counter()))

    def child_env(self, traced: bool):
        self.children += 1
        record_path = self.work / f"record-{self.children}.json"
        env = dict(os.environ, PERFBENCH_RECORD=str(record_path),
                   PERFBENCH_TRACE="1" if traced else "0")
        # str hashes are randomized per process, which moves the analyzer's
        # set and dict layouts and with them its time from one op to the next
        env.setdefault("PYTHONHASHSEED", "0")
        return record_path, env

    @staticmethod
    def read_record(path: Path) -> Optional[dict]:
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def cli(self, *args: str, traced: bool = False):
        """Run one minicheck command; returns (exit code, stdout, t0, t1, record)."""
        record_path, env = self.child_env(traced)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *args], cwd=self.work, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=self.timeout())
        except subprocess.TimeoutExpired:
            raise Fatal(f"{args[0]} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        t1 = time.perf_counter()
        if proc.returncode != 0 and err:
            self.problems.append(f"{args[0]} stderr: {err.strip()[-300:]}")
        return proc.returncode, out, t0, t1, self.read_record(record_path)

    def write_source(self, source: str) -> None:
        (self.work / PROG).write_text(source)
        self.expected = check.expected_races(source)

    def bundle_bytes(self) -> int:
        try:
            return (self.work / STATE / "bundle.json").stat().st_size
        except OSError:
            return 0

    # -- set-up --------------------------------------------------------------

    def start_server(self, traced: bool) -> None:
        self.server = Server(self, traced)
        line, _, _ = self.server.request({"id": 0, "method": "warnings"})
        doc, problems = check.parse_json(line)
        problems = problems or check.check_warnings(doc.get("result"), self.expected, PROG)
        if problems:
            raise Fatal(f"serve warnings: {problems}")

    def setup(self) -> None:
        """Corpus generation plus one warm-up analyze (and, for serve, starting
        the server), done SETUPS times; the last one is kept."""
        from minicheck.corpus import corpus_source
        for _ in range(SETUPS):
            if self.server is not None:
                self.server.close()
            t0 = time.perf_counter()
            self.write_source(corpus_source(self.spec))
            shutil.rmtree(self.work / STATE, ignore_errors=True)
            try:
                code, out, _, _, _ = self.cli("analyze", PROG, "--state-dir", STATE)
                problems = check.check_analyze(code, out, self.expected, PROG)
                if problems:
                    raise Fatal(f"warm-up analyze: {problems} {self.problems}")
                if self.workload == "serve-ripple":
                    self.start_server(traced=self.trace)
            except Fatal as exc:
                raise SetupError(str(exc)) from None
            self.setups.append(time.perf_counter() - t0)
        self.chain = EditChain(self.spec, EDIT_KINDS[self.workload], self.seed)

    # -- ops -------------------------------------------------------------------

    def op(self, index: int) -> Op:
        if self.workload == "scratch":
            shutil.rmtree(self.work / STATE, ignore_errors=True)
            code, out, t0, t1, record = self.cli("analyze", PROG, "--state-dir", STATE,
                                                 traced=self.trace)
            problems = check.check_analyze(code, out, self.expected, PROG)
            return self._cli_op(index, t0, t1, problems, record)
        source, edited = self.chain.next()
        self.write_source(source)
        if self.workload == "edit-local":
            code, out, t0, t1, record = self.cli("reanalyze", PROG, "--state-dir", STATE,
                                                 "--stats", "--explain-diff", traced=self.trace)
            problems = check.check_reanalyze(code, out, self.expected, PROG, edited)
            return self._cli_op(index, t0, t1, problems, record)
        line, t0, t1 = self.server.request({"id": index + 1, "method": "reanalyze", "path": PROG})
        problems = check.check_serve_reanalyze(line, index + 1, self.expected, PROG)
        return Op(index, t0, t1, problems, self.bundle_bytes())

    def _cli_op(self, index, t0, t1, problems, record) -> Op:
        op = Op(index, t0, t1, problems, self.bundle_bytes())
        if record is not None:
            self.records.append(record)
            if self.trace:
                self.missing = record.get("missing", [])
                spans = record.get("spans", [])
                op.layers = tracing.op_metrics(spans, range(len(spans)), self.missing,
                                               op.wall, record.get("install_s", 0.0))
        elif not problems:
            problems.append("the analyzer process left no exit record")
        return op

    def measure(self) -> None:
        end = time.perf_counter() + self.seconds
        index = 0
        while not self.ops or time.perf_counter() < end:
            try:
                op = self.op(index)
            except Fatal as exc:
                walls = [o.wall for o in self.ops]
                typical = statistics.median(walls) if walls else OP_TIMEOUT_S
                rest = max(0, math.ceil((end - time.perf_counter()) / typical))
                self.problems.append(f"op {index}: {exc}; {rest} more ops counted as failed")
                self.attempted += 1 + rest
                self.failed += 1 + rest
                break
            self.ops.append(op)
            self.attempted += 1
            if op.problems:
                self.failed += 1
                self.problems.extend(f"op {index}: {p}" for p in op.problems)
            index += 1
        self.last_bundle_bytes = self.bundle_bytes()
        if self.server is not None:
            self.server.close()
            record = self.server.record
            self.server = None
            if record is None:
                self.problems.append("serve left no exit record")
            else:
                self.records.append(record)
                if self.trace:
                    self._serve_layers(record)

    def _serve_layers(self, record: dict) -> None:
        """Attribute the traced server's spans to requests by time window."""
        spans = record.get("spans", [])
        self.missing = record.get("missing", [])
        for op in self.ops:
            inside = [i for i, s in enumerate(spans) if op.t0 <= s["t0"] and s["t1"] <= op.t1]
            op.layers = tracing.op_metrics(spans, inside, self.missing, op.wall)

    def compare(self) -> None:
        try:
            code, out, _, _, _ = self.cli("compare", PROG, "--state-dir", STATE)
            self.compare_problems = check.check_compare(code, out)
        except Fatal as exc:
            self.compare_problems = [str(exc)]

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- results -----------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        rss = [r["maxrss_kb"] for r in self.records if "maxrss_kb" in r]
        return {
            "setup_s": statistics.median(self.setups),
            "op_p50_s": statistics.median(o.wall for o in self.ops) if self.ops else 0.0,
            "peak_rss_mib": max(rss) / 1024 if rss else 0.0,
            "bundle_mib": self.last_bundle_bytes / MIB,
        }

    def per_layer(self) -> Dict[str, float]:
        traced = [o for o in self.ops if o.layers]
        return {name: statistics.median(o.layers[name] for o in traced if name in o.layers)
                for name in sorted({k for o in traced for k in o.layers})}

    def result(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0 and not self.compare_problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_unknown")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> Bench:
    bench = Bench(workload, seed, seconds, trace)
    try:
        bench.setup()
        bench.measure()
        bench.compare()
    finally:
        bench.close()
    return bench


# -- report ---------------------------------------------------------------------


def print_report(benches: List[Bench], trace: bool) -> None:
    b0 = benches[0]
    print(f"# minicheck benchmark: n = {N_FUNCTIONS} functions, seed {b0.seed}, "
          f"{b0.seconds} s per workload, closed loop, 1 client; "
          f"Python {platform.python_version()}, nproc {os.cpu_count()}")
    for b in benches:
        print(f"# {b.workload}: {WORKLOADS[b.workload]}")
        for p in (b.problems + b.compare_problems)[:10]:
            print(f"#   problem: {p}")
    if trace:
        layers = [b.per_layer() for b in benches]
        print(f"{'per-layer metric (median per traced op)':42}"
              + "".join(f"{b.workload:>14}" for b in benches))
        for name in sorted({k for m in layers for k in m}):
            row = [m.get(name) for m in layers]
            print(f"{name + ' [' + unit_of(name) + ']':42}"
                  + "".join(f"{'-' if v is None else format(v, '.4g'):>14}" for v in row))
        for b in benches:
            missing = tracing.missing_metrics(b.missing)
            if b.missing:
                print(f"# {b.workload}: missing targets {b.missing}; metrics {missing}")
            print(f"# {b.workload}: {sum(bool(o.layers) for o in b.ops)} traced ops")
        return
    print(f"{'workload':14}{'op':17}{'setup_s [s]':>13}{'op_p50_s [s]':>14}{'ops':>5}"
          f"{'peak_rss_mib':>14}{'bundle_mib':>12}{'error_rate':>12}")
    for b in benches:
        m = b.end_to_end()
        print(f"{b.workload:14}{OP_NAME[b.workload]:17}{m['setup_s']:13.3f}"
              f"{m['op_p50_s']:14.3f}{len(b.ops):5d}{m['peak_rss_mib']:14.1f}"
              f"{m['bundle_mib']:12.2f}{b.failed / max(1, b.attempted):12.3f}")
    print(f"# samples per run: setup_s {SETUPS}; op_p50_s one per op; peak_rss_mib the "
          "processes that ran ops; bundle_mib the bundle after the last op. "
          "No tail percentile: it needs >= 11 ops per run.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "minicheck" / "cli.py").is_file():
        print(f"error: no minicheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    benches = []
    try:
        for name in names:
            benches.append(run_workload(name, ns.seed, ns.seconds, bool(ns.trace)))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print_report(benches, bool(ns.trace))
    if len(benches) == 1:
        print(json.dumps(benches[0].result()))
    else:
        print(json.dumps({b.workload: b.result() for b in benches}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
