"""Command-line pipeline and server mode.

Subcommands::

    minicheck analyze   prog.mc   # from-scratch: solve, warn, persist state
    minicheck reanalyze prog.mc   # incremental: diff, destabilize, re-solve
    minicheck compare   prog.mc   # precision of the persisted state vs scratch
    minicheck serve               # line-delimited JSON request loop

There is one pipeline, `run_reanalysis`: an analysis from scratch is the
reanalysis of ``Session.empty()``, and the server drives the same pipeline.

State persists in a single compact JSON bundle (``--state-dir``): the
per-function digests for change detection, node-id assignment, solver state,
warning store and the analysis options that produced them.  A bundle whose
format, analysis domain or widening-point policy does not match is refused;
reusing solver data across differing abstractions is unsound.  A damaged
bundle is an error, never a traceback.  ``compare`` refuses a bundle whose
digests differ from the current source's.

Exit codes: 0 ok; 1 warnings present (with ``--fail-on-warn``); 2 errors.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import json
import os
import socket
import stat
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, TextIO

from .consys import NodeCtx, unknown_key
from .domains import leq
from .increment import reanalyze
from .minic import MiniCError, build_system, parse
from .minic.cfg import NodeAssignment, NodeTableError, assign_node_ids
from .postproc import StateCorruption, WarnStore, diff_warnings, postprocess
from .tdsolver import (
    SolverDepthError,
    SolverState,
    run,
    state_from_json,
    state_to_json,
    verify_solution,
)

BUNDLE_NAME = "bundle.json"
BUNDLE_FORMAT = 2


class CliError(Exception):
    pass


# What ends a command with exit code 2 and a request with an error response.
# A RecursionError escapes the recursive-descent parser and the right-hand
# sides the system builder makes, which recurse once per nesting level of an
# expression (~200 nested parentheses, a ~250-term sum or ~330 call arguments
# exhaust the default recursion limit); after an error the server reloads
# its state from the bundle.
ERRORS = (MiniCError, CliError, NodeTableError, SolverDepthError, RecursionError,
          StateCorruption)


@dataclass
class Options:
    mode: str = "reluctant"
    restart: str = "minimal"
    wpoint_restart: bool = False
    domain: str = "valueset"
    state_dir: str = ".minicheck"
    stats: bool = False
    fail_on_warn: bool = False
    explain_diff: bool = False

    def compat(self) -> dict:
        """The options a bundle must have been produced with to be reused."""
        return {"domain": self.domain, "wpoint_restart": self.wpoint_restart}


@dataclass
class Session:
    """One analyzed version of a program: everything a bundle persists."""

    digests: dict  # Program.digests of the source
    assignment: NodeAssignment
    state: SolverState
    store: WarnStore

    @staticmethod
    def empty() -> "Session":
        """The version before the first analysis: no functions, no state."""
        return Session({"init": None, "functions": {}, "globals": []}, NodeAssignment(),
                       SolverState(), WarnStore())


@dataclass
class AnalysisResult:
    session: Session
    run_stats: dict
    post_stats: dict
    diff: dict
    changes: dict


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def save_bundle(state_dir: str, session: Session, opts: Options) -> None:
    """Write the bundle to a temporary file and rename it over the old one,
    so that a crash never leaves a partly written bundle behind."""
    doc = {
        "format": BUNDLE_FORMAT,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "compat": opts.compat(),
        "digests": session.digests,
        "nodes": session.assignment.to_json(),
        "solver": state_to_json(session.state),
        "warnstore": session.store.to_json(),
    }
    try:
        os.makedirs(state_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=BUNDLE_NAME + ".", suffix=".tmp", dir=state_dir)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(doc, separators=(",", ":")) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, os.path.join(state_dir, BUNDLE_NAME))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise CliError(f"cannot write state bundle to {state_dir}: {exc}") from exc


def load_bundle(state_dir: str, opts: Options) -> Optional[Session]:
    """The session persisted in `state_dir`, or None if there is no bundle."""
    path = os.path.join(state_dir, BUNDLE_NAME)
    try:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format") != BUNDLE_FORMAT:
            raise CliError(f"state bundle format {doc.get('format')!r} is not supported "
                           f"(this version reads format {BUNDLE_FORMAT}); "
                           "delete the state dir to reanalyze from scratch")
        stored = doc.get("compat", {})
        differ = [f"{k} {stored.get(k)!r} vs {v!r}"
                  for k, v in opts.compat().items() if stored.get(k) != v]
        if differ:
            raise CliError(
                "state bundle was produced with different analysis options "
                f"({', '.join(differ)}); "
                "refusing to reuse it; delete the state dir to reanalyze from scratch")
        digests = doc["digests"]
        if not isinstance(digests["init"], str) or \
                any(len(d) != 2 for d in digests["functions"].values()) or \
                not isinstance(digests["globals"], list) or \
                not all(isinstance(g, str) for g in digests["globals"]):
            raise ValueError("malformed digests")
        return Session(digests, NodeAssignment.from_json(doc["nodes"]),
                       state_from_json(doc["solver"]),
                       WarnStore.from_json(doc["warnstore"]))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise CliError(f"state bundle {path} is unreadable or corrupt ({exc!r}); "
                       "delete the state dir to reanalyze from scratch") from exc


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def run_analysis(text: str, filename: str, opts: Options) -> AnalysisResult:
    """Analyze `text` from scratch."""
    return run_reanalysis(Session.empty(), text, filename, opts)


def run_reanalysis(session: Session, text: str, filename: str,
                   opts: Options) -> AnalysisResult:
    """Reanalyze `text` against `session`, whose solver state is updated in
    place (and is unusable if this raises)."""
    prog = parse(text)
    state = session.state
    changes, built, run_stats, start = reanalyze(session.digests, session.assignment, state,
                                                 prog, opts.mode, opts.restart, opts.domain,
                                                 restart_wpoint=opts.wpoint_restart)
    store, post_stats = postprocess(built, state, session.store, filename, start)
    return AnalysisResult(Session(prog.digests, built.assignment, state, store),
                          run_stats, post_stats, diff_warnings(session.store, store),
                          changes.to_json())


def compare_report(session: Session, text: str, opts: Options) -> dict:
    """From-scratch precision report for the persisted incremental state.

    The scratch run reuses the session's node ids, every function being
    unchanged, so that equal ids denote equal program points; a fresh
    numbering would shift after edits that change node counts."""
    prog = parse(text)
    if prog.digests != session.digests:
        raise CliError("state bundle does not match the current source; run reanalyze first")
    asg = assign_node_ids(prog, session.assignment, set(prog.functions), set())
    built = build_system(prog, asg, opts.domain)
    scratch_state = SolverState()
    run(built.sys, scratch_state, restart_wpoint=opts.wpoint_restart)
    violations = verify_solution(built.sys, scratch_state)
    if violations:
        raise CliError(f"internal error: solution verification failed: {violations[:3]}")
    inc_points = {u: v for u, v in session.state.sigma.items() if isinstance(u, NodeCtx)}
    scr_points = {u: v for u, v in scratch_state.sigma.items() if isinstance(u, NodeCtx)}
    shared = sorted(set(inc_points) & set(scr_points), key=unknown_key)
    equal = coarser = finer = incomparable = 0
    coarser_points = []
    for u in shared:
        a, b = inc_points[u], scr_points[u]
        down = leq(a, b)
        up = leq(b, a)
        if down and up:
            equal += 1
        elif up:
            coarser += 1
            coarser_points.append(unknown_key(u))
        elif down:
            finer += 1
        else:
            incomparable += 1
            coarser_points.append(unknown_key(u))
    total = len(shared)
    worse = coarser + incomparable
    return {
        "total": total,
        "equal": equal,
        "coarser": coarser,
        "finer": finer,
        "incomparable": incomparable,
        "coarser_fraction": (worse / total) if total else 0.0,
        "coarser_points": coarser_points,
        "only_incremental": len(inc_points) - total,
        "only_scratch": len(scr_points) - total,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _read_source(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _diff_json(diff: dict) -> dict:
    return {k: [w.to_json() for w in ws] for k, ws in diff.items()}


def _report(payload, result: AnalysisResult, opts: Options, out: TextIO, err: TextIO) -> int:
    """Print a command's payload (and its counters with --stats); returns the
    exit code."""
    print(json.dumps(payload, indent=1), file=out)
    if opts.stats:
        state = result.session.state
        stats = {
            "rhs_evals_total": state.rhs_evals,
            "destabilizations_total": state.destabilizations,
            "run": result.run_stats,
            "postprocess": {k: len(v) for k, v in result.post_stats.items()},
        }
        print(json.dumps(stats, indent=1), file=err)
    return 1 if opts.fail_on_warn and result.session.store.warnings else 0


def cmd_analyze(path: str, opts: Options, out: Optional[TextIO] = None,
                err: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        result = run_analysis(_read_source(path), path, opts)
        save_bundle(opts.state_dir, result.session, opts)
    except ERRORS as exc:
        print(f"error: {exc}", file=err)
        return 2
    return _report(result.session.store.warnings_json(), result, opts, out, err)


def cmd_reanalyze(path: str, opts: Options, out: Optional[TextIO] = None,
                  err: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        session = load_bundle(opts.state_dir, opts)
        if session is None:
            print("notice: no previous state; analyzing from scratch", file=err)
            return cmd_analyze(path, opts, out, err)
        result = run_reanalysis(session, _read_source(path), path, opts)
        save_bundle(opts.state_dir, result.session, opts)
    except ERRORS as exc:
        print(f"error: {exc}", file=err)
        return 2
    payload = _diff_json(result.diff)
    if opts.explain_diff:
        payload["changes"] = result.changes
    return _report(payload, result, opts, out, err)


def cmd_compare(path: str, opts: Options, out: Optional[TextIO] = None,
                err: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        session = load_bundle(opts.state_dir, opts)
        if session is None:
            raise CliError("no state bundle; run analyze first")
        report = compare_report(session, _read_source(path), opts)
    except ERRORS as exc:
        print(f"error: {exc}", file=err)
        return 2
    print(json.dumps(report, indent=1), file=out)
    return 0


# ---------------------------------------------------------------------------
# Server mode: line-delimited JSON over stdio or a Unix socket, strictly
# serialized (one request at a time, responses in request order).
# ---------------------------------------------------------------------------


class Server:
    """Answers requests against one Session kept in memory.

    The bundle is read only while the server holds no session: at the first
    request that needs state, and after a failed reanalysis, which may have
    left the solver state half updated.  Every successful reanalysis writes
    the bundle back, so the state survives a crash of the server; a CLI run
    against the same state dir meanwhile goes unseen."""

    def __init__(self, opts: Options):
        self.opts = opts
        self.session: Optional[Session] = None

    def current(self) -> Optional[Session]:
        if self.session is None:
            self.session = load_bundle(self.opts.state_dir, self.opts)
        return self.session

    def reanalyze(self, path: str) -> dict:
        text = _read_source(path)
        session, self.session = self.current(), None  # reloaded if this request fails
        result = run_reanalysis(session or Session.empty(), text, path, self.opts)
        save_bundle(self.opts.state_dir, result.session, self.opts)
        self.session = result.session
        payload = _diff_json(result.diff)
        if session is None:
            payload["fallback"] = "analyze"
        if self.opts.stats:
            payload["stats"] = {
                "rhs_evals_total": result.session.state.rhs_evals,
                "destabilizations_total": result.session.state.destabilizations,
                "diagnostics": result.run_stats["diagnostics"],
            }
        return payload

    def serve(self, inp: TextIO, out: TextIO) -> bool:
        """Answer the requests on `inp` in order.  True when a shutdown
        request ended the loop, False when `inp` ran out."""
        for line in inp:
            line = line.strip()
            if not line:
                continue
            try:
                req = json.loads(line)
            except json.JSONDecodeError as exc:
                _respond(out, {"error": f"malformed request: {exc}"})
                continue
            rid = req.get("id") if isinstance(req, dict) else None
            method = req.get("method") if isinstance(req, dict) else None
            if method == "shutdown":
                _respond(out, {"id": rid, "result": "bye"})
                return True
            try:
                if method == "warnings":
                    session = self.current()
                    if session is None:
                        raise CliError("no analysis state")
                    result = session.store.warnings_json()
                elif method == "reanalyze":
                    path = req.get("path")
                    if not isinstance(path, str) or not path:
                        raise CliError("'path' must be a non-empty string")
                    result = self.reanalyze(path)
                else:
                    raise CliError(f"unknown method {method!r}")
            except ERRORS as exc:
                _respond(out, {"id": rid, "error": str(exc)})
            else:
                _respond(out, {"id": rid, "result": result})
        return False


def _respond(out: TextIO, doc: dict) -> None:
    """Write one response, then collect the youngest generation.  With the
    cyclic collector off (see `main`) it holds exactly what the request
    allocated and kept, so a cycle that some path leaves behind is freed
    before the next request without re-tracing the session."""
    out.write(json.dumps(doc, separators=(",", ":")) + "\n")
    out.flush()
    gc.collect(0)


def _clear_socket_path(socket_path: str) -> Optional[str]:
    """Why a server cannot bind `socket_path`, or None when it can.  A socket
    there that no server listens on was left behind by a server that did not
    shut down; it is removed."""
    if not os.path.lexists(socket_path):
        return None
    if not stat.S_ISSOCK(os.lstat(socket_path).st_mode):
        return f"{socket_path} exists and is not a socket"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.setblocking(False)
        try:
            probe.connect(socket_path)
        except ConnectionRefusedError:
            os.unlink(socket_path)
            return None
        except BlockingIOError:
            pass  # a server whose backlog is full
    return f"another server is listening on {socket_path}"


def cmd_serve(opts: Options, socket_path: Optional[str],
              err: Optional[TextIO] = None) -> int:
    err = err if err is not None else sys.stderr
    server = Server(opts)
    if socket_path is None:
        server.serve(sys.stdin, sys.stdout)
        return 0
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        problem = _clear_socket_path(socket_path)
        if problem is None:
            srv.bind(socket_path)
            bound = os.lstat(socket_path)
            srv.listen(1)
    except OSError as exc:
        problem = f"cannot listen on {socket_path}: {exc}"
    if problem is not None:
        srv.close()
        print(f"error: {problem}", file=err)
        return 2
    print(f"listening on {socket_path}", file=err)
    try:
        while True:
            conn, _ = srv.accept()
            try:
                with conn, conn.makefile("r", encoding="utf-8") as rf, \
                        conn.makefile("w", encoding="utf-8") as wf:
                    if server.serve(rf, wf):
                        return 0
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client left without reading its answer; serve the next
    finally:
        srv.close()
        with contextlib.suppress(OSError):
            if os.path.samestat(os.lstat(socket_path), bound):
                os.unlink(socket_path)  # still ours, not another server's


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["plain", "reluctant"], default="reluctant",
                   help="destabilization strategy for reanalysis")
    p.add_argument("--restart", choices=["off", "minimal"], default="minimal",
                   help="restarting of flow-insensitive unknowns")
    p.add_argument("--wpoint-restart", action="store_true",
                   help="restart an unknown when it first becomes a widening point "
                        "(enables localized widening)")
    p.add_argument("--domain", choices=["valueset", "interval"], default="valueset",
                   help="integer value domain")
    p.add_argument("--state-dir", default=".minicheck", help="where analysis state persists")
    p.add_argument("--stats", action="store_true", help="print solver counters to stderr")
    p.add_argument("--fail-on-warn", action="store_true",
                   help="exit 1 when warnings are present")


def _options(ns: argparse.Namespace) -> Options:
    return Options(mode=ns.mode, restart=ns.restart, wpoint_restart=ns.wpoint_restart,
                   domain=ns.domain, state_dir=ns.state_dir, stats=ns.stats,
                   fail_on_warn=ns.fail_on_warn,
                   explain_diff=getattr(ns, "explain_diff", False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="minicheck",
                                     description="incremental analyzer for MiniC programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="from-scratch analysis")
    p.add_argument("source")
    _add_common(p)

    p = sub.add_parser("reanalyze", help="incremental reanalysis against saved state")
    p.add_argument("source")
    p.add_argument("--explain-diff", action="store_true",
                   help="include the function-level change set in the output")
    _add_common(p)

    p = sub.add_parser("compare", help="compare saved state against a from-scratch run")
    p.add_argument("source")
    _add_common(p)

    p = sub.add_parser("serve", help="JSON line-protocol server (stdio or unix socket)")
    p.add_argument("--socket", default=None, help="unix socket path (default: stdio)")
    _add_common(p)

    ns = parser.parse_args(argv)
    opts = _options(ns)
    # The pipeline makes no reference cycles: everything it allocates is
    # freed by reference counting alone.  tests/test_cli.py pins this for
    # analyze and reanalyze (test_the_pipeline_leaves_no_cyclic_garbage),
    # compare (test_compare_leaves_no_cyclic_garbage) and serve, error
    # responses included (test_serve_leaves_no_cyclic_garbage,
    # test_serve_memory_stays_level_over_thirty_requests).  The cyclic
    # collector would only re-trace the live heap, hundreds of times per
    # command, and find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if ns.command == "analyze":
            return cmd_analyze(ns.source, opts)
        if ns.command == "reanalyze":
            return cmd_reanalyze(ns.source, opts)
        if ns.command == "compare":
            return cmd_compare(ns.source, opts)
        return cmd_serve(opts, ns.socket)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
