"""Command-line pipeline and server mode.

Subcommands::

    minicheck analyze   prog.mc   # from-scratch: solve, warn, persist state
    minicheck reanalyze prog.mc   # incremental: diff, destabilize, re-solve
    minicheck compare   prog.mc   # precision of the persisted state vs scratch
    minicheck serve               # line-delimited JSON request loop

There is one pipeline, `run_reanalysis`: an analysis from scratch is the
reanalysis of ``Session.empty()``, and the server drives the same pipeline.

State persists in a bundle in ``--state-dir``: the per-function digests
for change detection, node-id assignment, solver state, warning store and
the analysis options that produced them.  The bundle is a base, the record
of every row, and a journal of the records of the rows each reanalysis
changed since, all read by one replay (see `journal`).  A bundle whose
format, analysis domain or widening-point policy does not match is
refused; reusing solver data across differing abstractions is unsound.  A
damaged bundle, whose checksums catch a flipped byte, is an error, never a
traceback.  ``compare`` refuses a bundle whose digests differ from the
current source's.

Exit codes: 0 ok; 1 warnings present (with ``--fail-on-warn``); 2 errors.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import Optional, TextIO

from . import journal
from .consys import MAIN, NodeCtx, unknown_key
from .domains import DomainError, leq
from .increment import Reach, reanalyze, recorded_contexts
from .minic import MiniCError, Program, build_system, parse
from .minic.cfg import NodeAssignment, NodeTableError, assign_node_ids
from .postproc import PostIndex, StateCorruption, WarnStore, diff_warnings, postprocess
from .tdsolver import SolverDepthError, SolverState, run, verify_solution

BUNDLE_NAME = "bundle.json"  # the base
JOURNAL_NAME = "bundle.journal"
BUNDLE_FORMAT = 9
# A save writes a full base instead of a record that would make the journal
# longer than the base divided by this.
COMPACTION_RATIO = 4


class CliError(Exception):
    pass


# What ends a command with exit code 2 and a request with an error response.
# A RecursionError escapes the recursive-descent parser and the right-hand
# sides the system builder makes, which recurse once per nesting level of an
# expression (~200 nested parentheses, a ~250-term sum or ~330 call arguments
# exhaust the default recursion limit).  A DomainError is a program the
# value domains cannot represent, such as a local that holds an integer on
# one path and a pointer on another.  After an error the server reloads its
# state from the bundle.
ERRORS = (MiniCError, CliError, NodeTableError, SolverDepthError, RecursionError,
          StateCorruption, DomainError)


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
    """One analyzed version of a program: everything a bundle persists, and
    the parsed program, which is not persisted.

    The program's items (``syntax.Item``) hold each function's digests and
    CFGs, so a reanalysis of this session reuses every item whose text and
    position did not change.  Only the current version's items are kept.  A
    session from `empty` or `load_bundle` has no program: its first
    reanalysis parses every item.

    A session that was loaded or saved holds where on disk it is (`image`).
    Its reanalysis inherits the image and keeps what it began from (`then`,
    `journal.tables`) until its save, which writes only how the session
    differs from that; the reanalysis of another session keeps neither."""

    digests: dict  # Program.digests of the source
    assignment: NodeAssignment
    state: SolverState
    store: WarnStore
    program: Optional[Program] = None
    image: Optional[journal.Image] = None
    then: Optional[dict] = None

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
    parsed: int  # function items lexed and parsed anew (`Program.parsed`)


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def save_bundle(state_dir: str, session: Session, opts: Options) -> dict:
    """Persist `session` in `state_dir`, set its image to what is now on disk
    and drop its `then`.  Returns what was written: ``{"kind":
    "delta"|"full", "bytes": n}``.

    A session with a `then` whose image is still what the state dir holds
    appends one record to the journal (nothing if nothing changed).  Any
    other session, and one whose record would grow the journal past a
    quarter of the base, writes a full base, which empties the journal."""
    image, then = session.image, session.then
    session.then = None
    try:
        if then is not None and _is_on_disk(state_dir, image):
            framed = journal.record(then, session, image.base, image.tail)
            if framed is None:
                return {"kind": "delta", "bytes": 0}
            data, rid = framed
            if (image.end + len(data)) * COMPACTION_RATIO <= image.base_size:
                with open(os.path.join(state_dir, JOURNAL_NAME), "ab") as f:
                    f.write(data)
                    f.flush()
                    os.fsync(f.fileno())
                session.image = journal.Image(image.base, image.base_size,
                                              image.end + len(data), rid)
                return {"kind": "delta", "bytes": len(data)}
            del framed, data
        del then  # the old rows are freed before the base is encoded; the logs end as it begins
        size = _write_base(state_dir, session, opts)
    except OSError as exc:
        raise CliError(f"cannot write state bundle to {state_dir}: {exc}") from exc
    return {"kind": "full", "bytes": size}


def _is_on_disk(state_dir: str, image: journal.Image) -> bool:
    """Whether `image` is still the tail of the state dir: its base, and a
    journal that ends where its last record does.  It is not after another
    writer saved to the state dir, or after a torn record."""
    try:
        with open(os.path.join(state_dir, BUNDLE_NAME), "rb") as f:
            head = f.readline()
    except FileNotFoundError:
        return False
    try:
        size = os.path.getsize(os.path.join(state_dir, JOURNAL_NAME))
    except FileNotFoundError:
        size = 0
    return _base_id(head.rstrip(b"\n")) == image.base and size == image.end


def _base_id(head: bytes) -> str:
    """A base's id: the sha256 of its first line, which holds its creation
    time and the checksum of the rest."""
    return hashlib.sha256(head).hexdigest()


def _write_base(state_dir: str, session: Session, opts: Options) -> int:
    """Write the base of `session`: a temporary file renamed over the old
    base, then the journal is removed; returns the base's size.  A crash
    before the rename leaves the old base and journal, one after it a
    journal whose records name the old base and are ignored.

    The base is one JSON object.  Its first line holds the format, the
    creation time and the sha256 of the bytes after that line: the options
    and the record that turns the empty session into `session`
    (`journal.members`), written as it is built, so that no whole encoding
    of the state is ever held."""
    created = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="microseconds")
    body = itertools.chain([("compat", opts.compat())], journal.members(journal.EMPTY, session))
    os.makedirs(state_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=BUNDLE_NAME + ".", suffix=".tmp", dir=state_dir)
    try:
        with os.fdopen(fd, "wb") as f:
            head = _base_head(created, "0" * 64)
            f.write(head)
            digest = hashlib.sha256()

            def write(text: str) -> None:
                data = text.encode()
                digest.update(data)
                f.write(data)

            journal.write_json(write, body, opened=True)
            write("\n")
            size = f.tell()
            head = _base_head(created, digest.hexdigest())
            f.seek(0)
            f.write(head)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(state_dir, BUNDLE_NAME))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(state_dir, JOURNAL_NAME))
    base = _base_id(head[:-1])
    session.image = journal.Image(base, size, 0, base)
    return size


def _base_head(created: str, sha256: str) -> bytes:
    return (f'{{"format":{BUNDLE_FORMAT},"created_at":{json.dumps(created)},'
            f'"sha256":"{sha256}",\n').encode()


def load_bundle(state_dir: str, opts: Options) -> Optional[Session]:
    """The session persisted in `state_dir`, the empty session with the base
    and then the journal's records replayed, or None if there is no base.
    Records of another base, or that do not follow the record before them,
    are ignored; so is a torn last record.  An error names the file it
    comes from."""
    path = os.path.join(state_dir, BUNDLE_NAME)
    session = Session.empty()
    try:
        with open(path, "rb") as f:
            data = f.read()
        doc = json.loads(data)
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
        nl = data.find(b"\n")
        if nl < 0 or hashlib.sha256(memoryview(data)[nl + 1:]).hexdigest() != doc["sha256"]:
            raise ValueError("its checksum does not match")
        journal.replay(session, doc)
        base = tail = _base_id(data[:nl])
        size = len(data)
        del data, doc
        end = 0
        path = os.path.join(state_dir, JOURNAL_NAME)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            data = b""
        for record, rid, record_end in journal.records(data):
            if record["base"] == base and record["prev"] == tail:
                journal.replay(session, record)
                tail, end = rid, record_end
    except FileNotFoundError:
        return None
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        # The repr of a UnicodeDecodeError holds the whole input.
        raise CliError(f"state bundle {path} is unreadable or corrupt "
                       f"({type(exc).__name__}: {exc}); "
                       "delete the state dir to reanalyze from scratch") from exc
    session.image = journal.Image(base, size, end, tail)
    return session


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
    prog = parse(text, session.program)
    state, index = session.state, session.store.index
    # A session from `empty` or `load_bundle` has no index: its contexts are
    # read off σ, and its reach off the state before the run.
    contexts = index.contexts if index is not None else \
        recorded_contexts(state, session.assignment)
    reach = Reach.of(state, MAIN) if index is None else None
    changes, built, run_stats, reuse = reanalyze(
        session.digests, session.assignment, state, prog, opts.mode, opts.restart,
        opts.domain, restart_wpoint=opts.wpoint_restart, contexts=contexts)
    if reach is not None:
        session.store.index = PostIndex.of(session.store, reach.find_leaves(built.sys), contexts,
                                           session.assignment)
    store, post_stats = postprocess(built, state, session.store, filename, reuse)
    on_disk = session.image is not None and session.then is None  # loaded or saved
    return AnalysisResult(Session(prog.digests, built.assignment, state, store, prog,
                                  session.image if on_disk else None,
                                  journal.tables(session, reuse.start) if on_disk else None),
                          run_stats, post_stats, diff_warnings(session.store, store),
                          changes.to_json(), prog.parsed)


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
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _diff_json(diff: dict) -> dict:
    return {k: [w.to_json() for w in ws] for k, ws in diff.items()}


def _report(payload, result: AnalysisResult, persisted: dict, opts: Options, out: TextIO,
            err: TextIO) -> int:
    """Print a command's payload (and its counters and what it persisted
    with --stats); returns the exit code."""
    print(json.dumps(payload, indent=1), file=out)
    if opts.stats:
        run = dict(result.run_stats)
        for key in ("step1_evals_by_unknown", "step2_evals_by_unknown"):
            run[key] = {unknown_key(u): n for u, n in run[key].items()}
        stats = _stats(result, persisted, run=run, postprocess=_post_counts(result))
        print(json.dumps(stats, indent=1), file=err)
    return 1 if opts.fail_on_warn and result.session.store.warnings else 0


def _post_counts(result: AnalysisResult) -> dict:
    """How many unknowns the post-solve walk re-evaluated, reused,
    evaluated and walked (evaluated, reused or re-checked)."""
    return {k: len(v) for k, v in result.post_stats.items()}


def _stats(result: AnalysisResult, persisted: dict, **details) -> dict:
    """The counters of a reanalysis, with `details` before what it persisted."""
    state = result.session.state
    return {"rhs_evals_total": state.rhs_evals, "destabilizations_total": state.destabilizations,
            "parsed": result.parsed, **details, "persisted": persisted}


def cmd_analyze(path: str, opts: Options, out: Optional[TextIO] = None,
                err: Optional[TextIO] = None) -> int:
    return _analyze(path, opts, out, err, load=False)


def cmd_reanalyze(path: str, opts: Options, out: Optional[TextIO] = None,
                  err: Optional[TextIO] = None) -> int:
    return _analyze(path, opts, out, err, load=True)


def _analyze(path: str, opts: Options, out: Optional[TextIO], err: Optional[TextIO],
             load: bool) -> int:
    """Analyze `path`, with `load` against the state in ``opts.state_dir``
    if there is one, else from scratch; save and report.  An analysis from
    scratch reports the warnings, a reanalysis how they changed."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        session = load_bundle(opts.state_dir, opts) if load else None
        if load and session is None:
            print("notice: no previous state; analyzing from scratch", file=err)
        result = run_analysis(_read_source(path), path, opts) if session is None else \
            run_reanalysis(session, _read_source(path), path, opts)
        # nothing reuses them; their memory is the bundle's
        result.session.program = result.session.store.index = None
        persisted = save_bundle(opts.state_dir, result.session, opts)
    except ERRORS as exc:
        print(f"error: {exc}", file=err)
        return 2
    if session is None:
        payload = result.session.store.warnings_json()
    else:
        payload = _diff_json(result.diff)
        if opts.explain_diff:
            payload["changes"] = result.changes
    return _report(payload, result, persisted, opts, out, err)


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
    left the solver state half updated.  Every successful reanalysis saves
    the session, so the state survives a crash of the server.  A CLI run
    against the same state dir meanwhile goes unseen, and the server's next
    save overwrites it with a full base."""

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
        fallback = session is None
        result = run_reanalysis(session or Session.empty(), text, path, self.opts)
        del session  # the old program is freed before the bundle is encoded
        persisted = save_bundle(self.opts.state_dir, result.session, self.opts)
        self.session = result.session
        payload = _diff_json(result.diff)
        if fallback:
            payload["fallback"] = "analyze"
        if self.opts.stats:
            payload["stats"] = _stats(result, persisted,
                                      diagnostics=result.run_stats["diagnostics"],
                                      postprocess=_post_counts(result))
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
    import socket
    import stat
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
    import socket  # only a socket server needs it
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


def _add_flags(p: argparse.ArgumentParser, reanalyzes: bool, counts: bool,
               reports: bool) -> None:
    """The option flags of a command: those of the options a bundle must
    have been produced with and of where it is, and, if the command
    `reanalyzes` a previous version, those of how it destabilizes and
    restarts (an analysis reanalyzes the empty version, where neither does
    anything), if it `counts`, ``--stats``, and, if it `reports` warnings
    in its exit code, ``--fail-on-warn``."""
    if reanalyzes:
        p.add_argument("--mode", choices=["plain", "reluctant"], default=Options.mode,
                       help="destabilization strategy for reanalysis")
        p.add_argument("--restart", choices=["off", "minimal"], default=Options.restart,
                       help="restarting of flow-insensitive unknowns")
    p.add_argument("--wpoint-restart", action="store_true",
                   help="restart an unknown when it first becomes a widening point "
                        "(enables localized widening)")
    p.add_argument("--domain", choices=["valueset", "interval"], default=Options.domain,
                   help="integer value domain")
    p.add_argument("--state-dir", default=Options.state_dir,
                   help="where analysis state persists")
    if counts:
        p.add_argument("--stats", action="store_true", help="print solver counters to stderr")
    if reports:
        p.add_argument("--fail-on-warn", action="store_true",
                       help="exit 1 when warnings are present")


def _options(ns: argparse.Namespace) -> Options:
    """The options the flags `ns` set; those of flags a command does not
    accept keep their defaults."""
    return Options(**{f.name: getattr(ns, f.name) for f in fields(Options)
                      if hasattr(ns, f.name)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="minicheck",
                                     description="incremental analyzer for MiniC programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="from-scratch analysis")
    p.add_argument("source")
    _add_flags(p, reanalyzes=False, counts=True, reports=True)

    p = sub.add_parser("reanalyze", help="incremental reanalysis against saved state")
    p.add_argument("source")
    p.add_argument("--explain-diff", action="store_true",
                   help="include the function-level change set in the output")
    _add_flags(p, reanalyzes=True, counts=True, reports=True)

    p = sub.add_parser("compare", help="compare saved state against a from-scratch run")
    p.add_argument("source")
    _add_flags(p, reanalyzes=False, counts=False, reports=False)

    p = sub.add_parser("serve", help="JSON line-protocol server (stdio or unix socket)")
    p.add_argument("--socket", default=None, help="unix socket path (default: stdio)")
    _add_flags(p, reanalyzes=True, counts=True, reports=False)

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
