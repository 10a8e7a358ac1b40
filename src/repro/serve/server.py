"""The always-on analysis daemon behind ``repro serve``.

One process, five moving parts:

- **Sessions** — one thread per connection reads line-delimited JSON
  submissions (:mod:`repro.serve.protocol`).  The same port answers
  HTTP ``GET /stats`` / ``GET /healthz`` for monitoring.  The ingress
  is hardened against hostile clients (see DESIGN.md §11): a session
  cap refused with explicit ``busy`` lines, per-line read deadlines, a
  progress-based idle reaper, a malformed-line strike budget, and
  bounded verdict sends with dead-peer detection — all exercised by
  :mod:`repro.serve.netchaos`.
- **Admission** — a single lock serializes arrivals, which *defines*
  the arrival order; the deterministic controller
  (:mod:`repro.serve.admission`) sheds with explicit ``overloaded``
  responses, and accepted submissions get the next message index.
- **Fair scheduling + micro-batching** — accepted submissions queue
  per reporter (:mod:`repro.serve.scheduler`); a dispatcher thread
  drains round-robin micro-batches into the persistent engine
  (:mod:`repro.serve.engine`).
- **Durability** — every verdict appends to the PR-5 CRC checkpoint
  before it streams back to the submitter; rolling compaction rewrites
  the JSONL once it grows past a threshold, so a month-long daemon
  stays bounded.  The manifest carries ``status: serving`` plus a
  ``service`` block (counters, next index, admission snapshot).
- **Drain** — SIGTERM stops intake (new submissions are ``rejected``
  with reason ``draining``), flushes every accepted submission through
  analysis and checkpoint, writes ``status: stopped`` with the exact
  admission snapshot, and exits 0.  A restarted daemon restores that
  snapshot, so replaying the remaining transcript produces records
  byte-identical to an uninterrupted daemon — and to a batch run over
  the same messages, because records depend only on (seed material,
  admission index).

Backpressure vs shedding: when the hardware falls behind, a session
stops *reading* once the accepted backlog passes ``backlog_high_water``
(TCP pushes back on the submitter) and resumes below the low-water
mark.  Blocking delays arrivals without reordering or dropping them,
so the deterministic shed set is unaffected by machine speed.
"""

from __future__ import annotations

import base64
import collections
import json
import os
import pathlib
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.runner.checkpoint import CheckpointStore, RunManifest
from repro.runner.executor import RunnerConfig
from repro.runner.retry import RetryPolicy
from repro.runner.stats import RunningStats
from repro.serve.admission import REFUSED_BUSY, AdmissionConfig, AdmissionController
from repro.serve.engine import ServeJob, build_engine
from repro.serve.protocol import (
    HTTP_ALLOWED_METHODS,
    MAX_LINE_BYTES,
    IdleTimeout,
    LineChannel,
    LineTooLong,
    ProtocolError,
    ReadDeadlineExceeded,
    decode_line,
    encode_line,
    encode_verdict_line,
    http_request_parts,
    http_response,
    looks_like_http,
    send_bounded,
)
from repro.serve.scheduler import FairScheduler
from repro.storage.durable import (
    DEFAULT_DURABILITY,
    durable_write_text,
    install_storage_faults,
    retrying,
)
from repro.storage.faults import StorageFaultEngine, storage_fault_profile

#: Name of the discovery file written into the checkpoint directory so
#: clients (and tests) can find the bound port of a daemon they spawned.
ENDPOINT_NAME = "endpoint.json"


@dataclass
class ServeConfig:
    """Everything ``repro serve`` tunes."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in endpoint.json
    seed: int = 2024
    scale: float = 0.15
    jobs: int = 1
    executor: str = "auto"  # 'auto' | 'thread' | 'process'
    batch_size: int = 8
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Accepted-but-unfinished submissions above which sessions stop
    #: reading (flow control); reading resumes at the low-water mark.
    backlog_high_water: int = 256
    backlog_low_water: int = 64
    #: Compact records.jsonl once it exceeds this many lines (0 = never).
    compact_lines: int = 100_000
    #: Keep only the newest N message indices when compacting (None =
    #: dedupe only).  Verdicts were already streamed to submitters, so
    #: the live checkpoint may be a rolling window.
    retain: int | None = None
    #: Per-message work budget (CLI ``--budget`` semantics).
    budget: int | None = None
    #: Guard-limit overrides as ``(key, value)`` pairs (``--guard-limit``).
    guard_limits: tuple[tuple[str, int], ...] | None = None
    max_line_bytes: int = MAX_LINE_BYTES
    #: Rewrite the manifest every N completions (and always at drain).
    manifest_every: int = 50
    #: Verdict latencies kept for the /stats percentiles.
    latency_window: int = 2048
    #: fsync policy for the checkpoint (``--durability``).
    durability: str = DEFAULT_DURABILITY
    #: Storage fault weather (``--storage-faults`` / ``--storage-fault-seed``).
    storage_faults: str = "off"
    storage_fault_seed: int = 0
    #: Consecutive failed verdict appends (each already bounded-retried)
    #: before the health state machine drops from ``degraded`` to
    #: ``readonly`` and new submissions shed.
    readonly_after: int = 3
    # ------------------------------------------------------------------
    # Ingress hardening (the connection lifecycle; see DESIGN.md §11).
    # ------------------------------------------------------------------
    #: Hard cap on concurrently open ingress connections.  Excess
    #: connections are refused with an explicit machine-readable
    #: ``busy`` line (never ticking the admission clock) and closed
    #: from the accept loop, so session threads stay bounded by this.
    max_sessions: int = 64
    #: Wall-clock budget to *complete* one protocol line once its first
    #: byte arrived (slowloris guard; 0 disables).
    line_deadline: float = 30.0
    #: Quiet seconds between lines before an idle session is reaped.
    #: Progress-based: a session still owed verdicts is never reaped,
    #: and the clock restarts when the last verdict streams (0 disables).
    idle_timeout: float = 300.0
    #: Wall-clock budget for streaming one response line to a slow
    #: peer before the socket is declared dead.  The verdict is already
    #: durable in the checkpoint; only the doomed write is abandoned.
    send_deadline: float = 30.0
    #: Malformed protocol lines (undecodable JSON, missing/unknown op)
    #: one session may send before a clean close.
    strike_budget: int = 8
    #: listen(2) backlog for the ingress socket.
    listen_backlog: int = 64
    #: Seconds a ``bye`` waits for outstanding verdicts before closing
    #: anyway (the drain path for one polite session).
    flush_timeout: float = 300.0


class _Session:
    """One live client connection (response side)."""

    _next_id = 0
    _id_lock = threading.Lock()

    def __init__(
        self,
        conn: socket.socket,
        send_deadline: float = 30.0,
        on_dead_peer=None,
    ):
        with _Session._id_lock:
            _Session._next_id += 1
            self.session_id = _Session._next_id
        self.conn = conn
        self.send_deadline = send_deadline
        self._on_dead_peer = on_dead_peer
        self._write_lock = threading.Lock()
        self.alive = True
        #: Accepted message indices whose verdict has not streamed yet
        #: (what ``bye`` waits for, and what defers the idle reaper).
        self.outstanding: set[int] = set()
        self.flushed = threading.Condition()

    def send(self, payload: dict) -> bool:
        return self.send_raw(encode_line(payload))

    def send_raw(self, data: bytes) -> bool:
        """Stream pre-encoded line bytes (the verdict splice path).

        Bounded: a peer that stops reading trips the send deadline and
        is declared dead rather than pinning an engine callback thread.
        Only the socket write is abandoned — the verdict is already
        durable in the checkpoint by the time this is called.
        """
        with self._write_lock:
            if not self.alive:
                return False
            if send_bounded(self.conn, data, self.send_deadline):
                return True
            self.alive = False
            # Shut down (not close) so the reader thread's select wakes
            # and runs the session's normal cleanup path; closing here
            # would race the reader on the fd.
            try:
                self.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._on_dead_peer is not None:
            self._on_dead_peer()
        return False

    def has_outstanding(self) -> bool:
        """True while verdicts are still owed (defers the idle reaper)."""
        with self.flushed:
            return bool(self.outstanding)

    def finish(self, index: int) -> None:
        with self.flushed:
            self.outstanding.discard(index)
            self.flushed.notify_all()

    def close(self) -> None:
        with self._write_lock:
            self.alive = False
            try:
                self.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.conn.close()
            except OSError:
                pass
        with self.flushed:
            self.flushed.notify_all()


class ServeDaemon:
    """The long-lived analysis service.  ``run()`` blocks until drained."""

    def __init__(self, config: ServeConfig, checkpoint_dir: str | pathlib.Path):
        self.config = config
        self.directory = pathlib.Path(checkpoint_dir)
        self.checkpoint = CheckpointStore(self.directory, durability=config.durability)
        self.admission = AdmissionController(config.admission)
        self.scheduler = FairScheduler()
        self.retry_policy = RetryPolicy()
        self.stats = RunningStats()
        #: Serializes arrivals; holding it defines the arrival order the
        #: determinism contract is stated in.
        self._admission_lock = threading.Lock()
        #: Guards counters + checkpoint bookkeeping on the verdict path.
        self._completion = threading.Condition()
        self._sessions: dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        #: Connections currently owned by a session thread (includes the
        #: HTTP-sniff window before a session registers).  Guarded by
        #: _sessions_lock; the accept loop refuses above max_sessions,
        #: so session threads are bounded by the cap.
        self._open_connections = 0
        # Ingress telemetry (surfaced in /stats and /healthz only —
        # never the manifest, so `--client-faults off` runs stay
        # byte-identical to pre-hardening daemons).
        self._ingress_lock = threading.Lock()
        self._ingress: collections.Counter = collections.Counter()
        self._shutdown = threading.Event()
        self._drained = threading.Event()
        self._draining = False
        self._stop_accepting = False
        self._fatal: str | None = None
        self.started_at = time.monotonic()
        self.port: int | None = None
        # Cumulative service counters (restored across restarts).
        self.next_index = 0
        self.submitted = 0
        self.accepted = 0
        self.shed = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.compactions = 0
        self.checkpoint_lines = 0
        # Storage health state machine: ok -> degraded (an append failed
        # past its bounded retry; the verdict bytes are buffered, not
        # lost) -> readonly (failures persist; new submissions shed with
        # explicit responses) -> ok again once an append lands and the
        # buffer drains.  Guarded by _storage_lock (never taken while
        # holding it: _completion may be taken *around* it, not under).
        self._storage_lock = threading.Lock()
        self.storage_health = "ok"  # 'ok' | 'degraded' | 'readonly'
        #: Verdict wire lines accepted but not yet durable (oldest first).
        self._pending_wires: collections.deque[bytes] = collections.deque()
        self._append_streak = 0  # consecutive failed appends
        self.append_errors = 0  # cumulative, for /stats
        self.storage_shed = 0
        self.storage_recoveries = 0
        self.last_storage_error: str | None = None
        self.reporters: dict[str, collections.Counter] = {}
        self._latencies: collections.deque = collections.deque(
            maxlen=max(1, config.latency_window)
        )
        self._engine = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Restore state, build the engine, bind, and go live."""
        if self.config.storage_faults != "off":
            install_storage_faults(
                StorageFaultEngine(
                    storage_fault_profile(self.config.storage_faults),
                    seed=self.config.storage_fault_seed,
                )
            )
        self._restore()
        self._build_engine()
        listener = socket.create_server(
            (self.config.host, self.config.port),
            backlog=max(1, self.config.listen_backlog),
            reuse_port=False,
        )
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._write_endpoint()
        self._write_manifest("serving")
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._threads = [acceptor, dispatcher]
        acceptor.start()
        dispatcher.start()

    def run(self) -> int:
        """start(), block until a shutdown request, drain, exit code."""
        self.start()
        return self.wait()

    def wait(self) -> int:
        """Block until a shutdown request, then drain; the exit code."""
        self._shutdown.wait()
        self._drain()
        return 1 if self._fatal else 0

    def request_shutdown(self) -> None:
        """Signal-handler safe: ask the daemon to drain and stop."""
        self._shutdown.set()

    # ------------------------------------------------------------------
    def _restore(self) -> None:
        """Adopt a prior daemon's manifest + checkpoint, if any."""
        try:
            manifest = self.checkpoint.read_manifest()
        except ValueError as error:
            raise RuntimeError(f"unreadable manifest under {self.directory}: {error}")
        scan = self.checkpoint.scan()
        self.checkpoint_lines = scan.total_lines
        durable = scan.indices
        if manifest is not None:
            if not manifest.is_service:
                raise RuntimeError(
                    f"{self.directory} holds a batch checkpoint "
                    f"(status {manifest.status!r}); `repro serve` cannot adopt it — "
                    f"use `repro resume` for batch runs or point --checkpoint at "
                    f"a fresh directory"
                )
            if (manifest.seed, manifest.scale) != (self.config.seed, self.config.scale):
                raise RuntimeError(
                    f"checkpoint belongs to seed={manifest.seed} scale={manifest.scale}; "
                    f"restart with matching --seed/--scale or the replayed transcript "
                    f"cannot be byte-identical"
                )
            service = manifest.service or {}
            self.stats = RunningStats.from_dict(manifest.stats)
            self.next_index = int(service.get("next_index", 0))
            self.submitted = int(service.get("submitted", 0))
            self.accepted = int(service.get("accepted", 0))
            self.shed = int(service.get("shed", 0))
            self.rejected = int(service.get("rejected", 0))
            self.completed = int(service.get("completed", 0))
            self.failed = int(service.get("failed", 0))
            self.compactions = int(service.get("compactions", 0))
            for name, counters in (service.get("reporters") or {}).items():
                self.reporters[name] = collections.Counter(
                    {key: int(value) for key, value in counters.items() if key != "queued"}
                )
            if service.get("admission"):
                self.admission.restore(service["admission"])
        # A daemon killed without a drain (kill -9) leaves the manifest
        # stale relative to records.jsonl: trust the records for index
        # allocation so no index is ever reused.
        if durable:
            self.next_index = max(self.next_index, max(durable) + 1)
            floor = len(durable)
            if self.completed < floor:
                self.completed = floor
            if self.accepted < self.completed + self.failed:
                self.accepted = self.completed + self.failed
            if self.submitted < self.accepted + self.shed + self.rejected:
                self.submitted = self.accepted + self.shed + self.rejected

    def _build_engine(self) -> None:
        from repro.core import CrawlerBox
        from repro.core.pipeline import build_pipeline_config
        from repro.dataset import CorpusGenerator

        config = self.config
        runner_config = RunnerConfig(
            seed=config.seed,
            scale=config.scale,
            budget=config.budget,
            guard_limits=config.guard_limits,
            corpus_prefix=0,  # workers need the world, not the corpus
        )
        executor = config.executor
        if executor == "auto":
            executor = "process" if config.jobs > 1 else "thread"
        box_factory = None
        if executor == "thread":
            corpus = CorpusGenerator(seed=config.seed, scale=config.scale).generate()
            pipeline_config = build_pipeline_config(config.budget, config.guard_limits)

            def box_factory(worker_id: int):
                return CrawlerBox.for_world(corpus.world, config=pipeline_config)

        self._engine = build_engine(
            executor,
            config.jobs,
            self._on_result,
            box_factory=box_factory,
            config=runner_config,
            batch_size=config.batch_size,
            on_fatal=self._on_fatal,
            on_stats=self._on_stats,
        )

    def _write_endpoint(self) -> None:
        payload = json.dumps(
            {"host": self.config.host, "port": self.port, "pid": os.getpid()},
            indent=2,
            sort_keys=True,
        )
        retrying(
            lambda: durable_write_text(
                self.directory / ENDPOINT_NAME,
                payload,
                durability=self.config.durability,
            )
        )

    def _on_fatal(self, reason: str) -> None:
        self._fatal = reason
        self.request_shutdown()

    # ------------------------------------------------------------------
    # Intake: sessions
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: drain in progress
            if self._stop_accepting:
                # The drain's wake-up poke (closing a listener does not
                # reliably interrupt a blocked accept()).
                try:
                    conn.close()
                except OSError:
                    pass
                return
            with self._sessions_lock:
                if self._open_connections >= max(1, self.config.max_sessions):
                    over_cap = True
                else:
                    over_cap = False
                    self._open_connections += 1
            if over_cap:
                # Refuse inline — no thread is ever spawned for an
                # over-cap connection, which is what bounds the daemon's
                # thread count by the session cap.
                self._refuse_busy(conn)
                continue
            self._count_ingress("sessions_total")
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-serve-session",
                daemon=True,
            ).start()

    def _refuse_busy(self, conn: socket.socket) -> None:
        """Explicit machine-readable refusal of an over-cap connection.

        Never ticks the admission clock: the connection carried no
        submission, so the deterministic admission transcript — and the
        records of every admitted message — is unaffected by floods.
        """
        self._count_ingress("busy_refused")
        line = encode_line(
            {
                "op": "busy",
                "reason": REFUSED_BUSY,
                "detail": f"{self.config.max_sessions} concurrent sessions are "
                f"already open; reconnect after one closes",
            }
        )
        try:
            conn.setblocking(False)
            send_bounded(conn, line, timeout=1.0)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _count_ingress(self, key: str, amount: int = 1) -> None:
        with self._ingress_lock:
            self._ingress[key] += amount

    def _release_connection(self) -> None:
        with self._sessions_lock:
            self._open_connections = max(0, self._open_connections - 1)

    def _serve_connection(self, conn: socket.socket) -> None:
        # A verdict line must not wait behind an unacknowledged
        # "accepted" line for the client's delayed ACK (Nagle).
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        session = _Session(
            conn,
            send_deadline=self.config.send_deadline,
            on_dead_peer=lambda: self._count_ingress("dead_peers"),
        )
        channel = LineChannel(conn, limit=self.config.max_line_bytes)
        try:
            line = self._read_session_line(channel, session)
            if line is None:
                return
            if looks_like_http(line):
                self._serve_http(conn, line)
                return
            with self._sessions_lock:
                self._sessions[session.session_id] = session
            strikes = max(1, self.config.strike_budget)
            while line is not None:
                try:
                    payload = decode_line(line)
                except ProtocolError as error:
                    self._count_ingress("malformed_lines")
                    strikes -= 1
                    if not self._strike(session, strikes, str(error)):
                        return
                    line = self._read_session_line(channel, session)
                    continue
                verdict = self._handle_op(session, payload)
                if verdict == "close":
                    return
                if verdict == "strike":
                    self._count_ingress("malformed_lines")
                    strikes -= 1
                    reason = f"unknown op {payload['op']!r}"
                    if not self._strike(session, strikes, reason):
                        return
                self._backpressure_wait()
                line = self._read_session_line(channel, session)
        except OSError:
            pass
        finally:
            with self._sessions_lock:
                self._sessions.pop(session.session_id, None)
            session.close()
            self._release_connection()

    def _read_session_line(self, channel: LineChannel, session: _Session) -> bytes | None:
        """One deadline-guarded line; ``None`` means close the session.

        Every reaping is explicit: the peer gets a machine-readable
        ``error`` naming why before the close (best-effort — a reaped
        peer is often not reading anyway).
        """
        config = self.config
        try:
            line = channel.read_line(
                line_deadline=config.line_deadline or None,
                idle_timeout=config.idle_timeout or None,
                defer_idle=session.has_outstanding,
            )
        except LineTooLong as error:
            # No resync is possible mid-line: error + close.
            self._count_ingress("oversized_lines")
            session.send({"op": "error", "reason": str(error)})
            return None
        except ReadDeadlineExceeded as error:
            self._count_ingress("line_deadline_reaped")
            session.send({"op": "error", "reason": f"read deadline: {error}"})
            return None
        except IdleTimeout as error:
            self._count_ingress("idle_reaped")
            session.send({"op": "error", "reason": f"idle timeout: {error}"})
            return None
        if line is None and channel.pending:
            self._count_ingress("mid_line_disconnects")
        return line

    def _strike(self, session: _Session, strikes_remaining: int, reason: str) -> bool:
        """Answer one malformed line; False when the budget is spent."""
        if strikes_remaining <= 0:
            self._count_ingress("strike_closes")
            session.send(
                {
                    "op": "error",
                    "reason": f"strike budget exhausted: {reason}",
                    "strikes_remaining": 0,
                }
            )
            return False
        session.send(
            {"op": "error", "reason": reason, "strikes_remaining": strikes_remaining}
        )
        return True

    def _serve_http(self, conn: socket.socket, request_line: bytes) -> None:
        self._count_ingress("http_requests")
        method, path = http_request_parts(request_line)
        if method not in HTTP_ALLOWED_METHODS:
            response = http_response(
                405,
                {"error": f"method {method} not allowed; use GET or HEAD"},
                headers={"Allow": ", ".join(HTTP_ALLOWED_METHODS)},
            )
        elif path == "/stats":
            response = http_response(200, self.stats_payload())
        elif path == "/healthz":
            # readonly is 503 like draining — load balancers should
            # route elsewhere — but the payload still answers with the
            # full storage diagnosis either way.
            status = 503 if (self._draining or self.storage_health == "readonly") else 200
            response = http_response(status, self.health_payload())
        else:
            response = http_response(404, {"error": f"no such endpoint {path!r}"})
        if method == "HEAD":
            response = response.split(b"\r\n\r\n", 1)[0] + b"\r\n\r\n"
        send_bounded(conn, response, self.config.send_deadline)
        try:
            conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _handle_op(self, session: _Session, payload: dict) -> str:
        """Dispatch one message -> ``'ok'`` | ``'close'`` | ``'strike'``."""
        op = payload["op"]
        if op == "submit":
            self._handle_submit(session, payload)
            return "ok"
        if op == "ping":
            session.send({"op": "pong", "draining": self._draining})
            return "ok"
        if op == "stats":
            session.send({"op": "stats", "stats": self.stats_payload()})
            return "ok"
        if op == "bye":
            self._flush_session(session)
            session.send({"op": "goodbye"})
            return "close"
        return "strike"

    def _handle_submit(self, session: _Session, payload: dict) -> None:
        from repro.mail.ingest import IngestError, ingest_eml_bytes

        client_id = str(payload.get("id") or "")
        reporter = str(payload.get("reporter") or "anonymous")

        def reject(reason: str) -> None:
            with self._completion:
                self.submitted += 1
                self.rejected += 1
                self._reporter(reporter)["submitted"] += 1
                self._reporter(reporter)["rejected"] += 1
            session.send({"op": "rejected", "id": client_id, "reason": reason})

        if self._draining:
            reject("draining: the daemon is shutting down; resubmit after restart")
            return
        raw_b64 = payload.get("eml")
        if not isinstance(raw_b64, str):
            reject("missing 'eml' (base64 RFC-822 bytes)")
            return
        try:
            raw = base64.b64decode(raw_b64.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError):
            reject("eml is not valid base64")
            return
        try:
            message = ingest_eml_bytes(raw)
        except IngestError as error:
            reject(f"ingest-error: {error}")
            return

        # Readonly storage: the disk refused enough appends in a row
        # that accepting more work would only grow the unpersistable
        # backlog.  Each arrival first probes the disk (draining the
        # pending buffer recovers the daemon the moment space returns),
        # then — if still readonly — sheds with an explicit machine-
        # readable response.  These sheds never tick the admission
        # clock, so the deterministic shed set of the admission
        # transcript is unaffected (like ``draining`` rejects).
        if self.storage_health == "readonly":
            self._probe_storage_recovery()
        if self.storage_health == "readonly":
            with self._completion:
                self.submitted += 1
                self.shed += 1
                self.storage_shed += 1
                self._reporter(reporter)["submitted"] += 1
                self._reporter(reporter)["shed"] += 1
            session.send(
                {
                    "op": "overloaded",
                    "id": client_id,
                    "reason": "readonly: checkpoint storage is failing "
                    f"({self.last_storage_error}); retry once space returns",
                    "retry_after_submissions": None,
                }
            )
            return

        # Arrival: the admission lock defines the arrival order; the
        # draining flag is re-checked under it so a drain boundary is a
        # clean cut in the transcript (rejected submissions never tick
        # the admission clock and are safe to replay after restart).
        with self._admission_lock:
            if self._draining:
                pass  # fall through to the draining reject below
            else:
                decision = self.admission.admit(reporter)
                with self._completion:
                    self.submitted += 1
                    self._reporter(reporter)["submitted"] += 1
                    if decision.admitted:
                        index = self.next_index
                        self.next_index += 1
                        self.accepted += 1
                        self._reporter(reporter)["accepted"] += 1
                    else:
                        self.shed += 1
                        self._reporter(reporter)["shed"] += 1
                if not decision.admitted:
                    session.send(
                        {
                            "op": "overloaded",
                            "id": client_id,
                            "reason": decision.reason,
                            "retry_after_submissions": decision.retry_after_submissions,
                        }
                    )
                    return
                job = ServeJob(
                    index=index,
                    reporter=reporter,
                    client_id=client_id,
                    eml_bytes=raw,
                    message=message,
                    session=session,
                    submitted_at=time.monotonic(),
                )
                with session.flushed:
                    session.outstanding.add(index)
                session.send(
                    {"op": "accepted", "id": client_id, "message_index": index}
                )
                self.scheduler.push(reporter, job)
                return
        reject("draining: the daemon is shutting down; resubmit after restart")

    def _flush_session(self, session: _Session, timeout: float | None = None) -> None:
        """Block a ``bye`` until every accepted verdict streamed back."""
        if timeout is None:
            timeout = self.config.flush_timeout
        deadline = time.monotonic() + timeout
        with session.flushed:
            while session.outstanding and session.alive:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                session.flushed.wait(min(0.25, remaining))

    def _backpressure_wait(self) -> None:
        """Flow control: pause reading while the backlog is too deep."""
        high = self.config.backlog_high_water
        if high <= 0:
            return
        low = min(self.config.backlog_low_water, high)
        with self._completion:
            if self._backlog() <= high:
                return
            while not self._draining and self._backlog() > low:
                self._completion.wait(0.25)

    def _backlog(self) -> int:
        return self.accepted - self.completed - self.failed

    def _reporter(self, name: str) -> collections.Counter:
        counter = self.reporters.get(name)
        if counter is None:
            counter = self.reporters[name] = collections.Counter()
        return counter

    # ------------------------------------------------------------------
    # Dispatch + completion
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self.scheduler.next_batch(self.config.batch_size, timeout=0.25)
            if batch:
                self._engine.submit(batch)
            elif self.scheduler.closed and not len(self.scheduler):
                return

    def _on_stats(self, shard: RunningStats) -> None:
        """Engine callback: fold one worker-local stats shard."""
        with self._completion:
            self.stats.absorb(shard)

    # ------------------------------------------------------------------
    # Storage health (ok -> degraded -> readonly -> recovered)
    # ------------------------------------------------------------------
    def _append_durable(self, wire: bytes) -> int:
        """Land one verdict line, riding out disk failures.

        Returns how many buffered + fresh lines actually reached the
        checkpoint in this call.  An accepted record is *never*
        dropped: a failed append (already bounded-retried inside the
        store) parks the wire bytes in ``_pending_wires`` — in order —
        and flips the health state machine; every later append attempt
        drains the buffer first, so recovery preserves append order.
        """
        with self._storage_lock:
            appended = self._flush_pending_locked()
            if self._pending_wires:
                self._pending_wires.append(wire)  # still failing: buffer
                return appended
            try:
                self.checkpoint.append_wire(wire)
            except OSError as error:
                self._note_append_failure_locked(error)
                self._pending_wires.append(wire)
                return appended
            self._note_append_success_locked()
            return appended + 1

    def _flush_pending_locked(self) -> int:
        """Drain the not-yet-durable buffer (caller holds _storage_lock)."""
        flushed = 0
        while self._pending_wires:
            try:
                self.checkpoint.append_wire(self._pending_wires[0])
            except OSError as error:
                self._note_append_failure_locked(error)
                break
            self._pending_wires.popleft()
            flushed += 1
            self._note_append_success_locked()
        return flushed

    def _note_append_failure_locked(self, error: OSError) -> None:
        self.append_errors += 1
        self._append_streak += 1
        self.last_storage_error = str(error)
        if self._append_streak >= max(1, self.config.readonly_after):
            self.storage_health = "readonly"
        elif self.storage_health == "ok":
            self.storage_health = "degraded"

    def _note_append_success_locked(self) -> None:
        self._append_streak = 0
        if not self._pending_wires and self.storage_health != "ok":
            self.storage_health = "ok"
            self.storage_recoveries += 1

    def _probe_storage_recovery(self) -> None:
        """Readonly + quiet pipeline = nothing retries the disk; incoming
        traffic probes instead, so the daemon heals when space returns."""
        with self._storage_lock:
            if self._pending_wires:
                self._flush_pending_locked()
            elif self.storage_health != "ok":
                self.storage_health = "ok"
                self.storage_recoveries += 1

    def _note_storage_error(self, error: OSError) -> None:
        """Record a non-append durable failure (compaction, manifest)."""
        with self._storage_lock:
            self._note_append_failure_locked(error)

    def _on_result(self, job: ServeJob, wire, error) -> None:
        """Engine callback: exactly one verdict per accepted submission."""
        if error is not None:
            job.attempts += 1
            job.error_history.append(repr(error))
            if (
                self.retry_policy.is_transient(error)
                and job.attempts < self.retry_policy.max_attempts
            ):
                with self._completion:
                    self.stats.retried += 1
                self._engine.submit([job])
                return
            with self._completion:
                self.failed += 1
                self.stats.dead_lettered += 1
                self._reporter(job.reporter)["failed"] += 1
                self._completion.notify_all()
            if job.session is not None:
                job.session.send(
                    {
                        "op": "failed",
                        "id": job.client_id,
                        "message_index": job.index,
                        "error": job.error_history[-1],
                        "attempts": job.attempts,
                    }
                )
                job.session.finish(job.index)
            self._manifest_maybe()
            return

        # The worker already rendered the final checkpoint line: append
        # the bytes and splice them into the verdict — the hot path
        # never re-serializes the record.  A failing disk buffers the
        # line (degraded/readonly) instead of killing the daemon; the
        # verdict still streams below — analysis happened, and the
        # record is queued for the checkpoint, not lost.
        appended = self._append_durable(wire.wire)
        compacted = False
        with self._completion:
            self.checkpoint_lines += appended
            if (
                self.config.compact_lines
                and self.checkpoint_lines >= self.config.compact_lines
                and self.storage_health == "ok"
            ):
                try:
                    result = self.checkpoint.compact(retain=self.config.retain)
                except OSError as error:
                    self._note_storage_error(error)
                else:
                    self.checkpoint_lines = result.lines_after
                    self.compactions += 1
                    compacted = True
            if not getattr(self._engine, "provides_stats", False):
                # Thread engine: no worker shards, fold the record here.
                self.stats.update(wire.record)
            self.completed += 1
            self._reporter(job.reporter)["completed"] += 1
            if job.submitted_at:
                self._latencies.append(time.monotonic() - job.submitted_at)
            self._completion.notify_all()
        if job.session is not None:
            job.session.send_raw(
                encode_verdict_line(job.client_id, job.index, wire.payload)
            )
            job.session.finish(job.index)
        self._manifest_maybe(force=compacted)

    def _manifest_maybe(self, force: bool = False) -> None:
        every = max(1, self.config.manifest_every)
        if force or (self.completed + self.failed) % every == 0:
            try:
                self._write_manifest("serving")
            except OSError as error:
                # Best-effort progress snapshot: records are the source
                # of truth and _restore() trusts them over a stale
                # manifest, so degrade instead of dying.
                self._note_storage_error(error)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Finish everything accepted, persist exact state, stop."""
        with self._admission_lock:
            self._draining = True
            self.scheduler.close()
        with self._completion:
            self._completion.notify_all()  # wake backpressure waiters
        self._stop_accepting = True
        if self._listener is not None:
            # Wake a blocked accept() with a throwaway connection (closing
            # the listener alone does not reliably interrupt it), then close.
            host = self.config.host if self.config.host not in ("", "0.0.0.0") else "127.0.0.1"
            try:
                socket.create_connection((host, self.port), timeout=1.0).close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=60.0)
        # Every accepted submission resolves to a verdict or a final
        # failure; the engine's crash/retry machinery guarantees progress.
        with self._completion:
            while self._backlog() > 0:
                self._completion.wait(0.25)
        if self._engine is not None:
            self._engine.stop()
        with self._storage_lock:
            self._flush_pending_locked()
            stranded = len(self._pending_wires)
        if stranded:
            # Zero-loss means zero *silent* loss: if the disk never
            # recovered, say so loudly and exit non-zero.
            self._fatal = (
                f"{stranded} accepted verdict record(s) could not be "
                f"persisted (storage {self.storage_health}: "
                f"{self.last_storage_error})"
            )
        try:
            self._write_manifest("stopped")
        except OSError as error:
            self._fatal = self._fatal or f"final manifest write failed: {error}"
        self.checkpoint.close()
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        self._drained.set()

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def _latency_quantiles(self) -> dict:
        window = sorted(self._latencies)
        if not window:
            return {"count": 0, "p50_ms": None, "p99_ms": None}

        def at(q: float) -> float:
            position = min(len(window) - 1, int(q * (len(window) - 1)))
            return round(window[position] * 1000.0, 3)

        return {"count": len(window), "p50_ms": at(0.50), "p99_ms": at(0.99)}

    def stats_payload(self) -> dict:
        with self._completion:
            queued = len(self.scheduler)
            in_flight = max(0, self._backlog() - queued)
            reporters = {
                name: dict(counter) for name, counter in sorted(self.reporters.items())
            }
            payload = {
                "status": "draining" if self._draining else "serving",
                "uptime_seconds": round(time.monotonic() - self.started_at, 3),
                "executor": getattr(self._engine, "name", self.config.executor),
                "jobs": self.config.jobs,
                "seed": self.config.seed,
                "scale": self.config.scale,
                "submitted": self.submitted,
                "accepted": self.accepted,
                "shed": self.shed,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "queued": queued,
                "in_flight": in_flight,
                "latency": self._latency_quantiles(),
                "checkpoint": {
                    "directory": str(self.directory),
                    "lines": self.checkpoint_lines,
                    "compactions": self.compactions,
                    "retain": self.config.retain,
                },
                "storage": self._storage_payload(),
                "analysis": self.stats.as_dict(),
            }
        depths = self.scheduler.depths()
        for name, depth in depths.items():
            reporters.setdefault(name, {})["queued"] = depth
        payload["reporters"] = reporters
        # Outside _completion: ingress has its own locks, and the
        # counters are telemetry, not part of the service state the
        # manifest persists.
        payload["ingress"] = self.ingress_payload()
        return payload

    def ingress_payload(self) -> dict:
        """Connection-lifecycle telemetry (/stats and /healthz only).

        Deliberately never written to the manifest: a daemon run with
        ``--client-faults off`` must leave a checkpoint directory
        byte-identical to one produced before ingress hardening existed.
        """
        with self._sessions_lock:
            open_connections = self._open_connections
            active_sessions = len(self._sessions)
        with self._ingress_lock:
            counters = dict(self._ingress)
        return {
            "open_connections": open_connections,
            "active_sessions": active_sessions,
            "max_sessions": self.config.max_sessions,
            "strike_budget": self.config.strike_budget,
            "sessions_total": counters.get("sessions_total", 0),
            "busy_refused": counters.get("busy_refused", 0),
            "idle_reaped": counters.get("idle_reaped", 0),
            "line_deadline_reaped": counters.get("line_deadline_reaped", 0),
            "mid_line_disconnects": counters.get("mid_line_disconnects", 0),
            "malformed_lines": counters.get("malformed_lines", 0),
            "strike_closes": counters.get("strike_closes", 0),
            "oversized_lines": counters.get("oversized_lines", 0),
            "dead_peers": counters.get("dead_peers", 0),
            "http_requests": counters.get("http_requests", 0),
        }

    def _storage_payload(self) -> dict:
        with self._storage_lock:
            return {
                "health": self.storage_health,
                "durability": self.config.durability,
                "pending_appends": len(self._pending_wires),
                "append_errors": self.append_errors,
                "storage_shed": self.storage_shed,
                "recoveries": self.storage_recoveries,
                "last_error": self.last_storage_error,
            }

    def health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else self.storage_health,
            "pid": os.getpid(),
            "port": self.port,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "backlog": self._backlog(),
            "storage": self._storage_payload(),
            "ingress": self.ingress_payload(),
        }

    def _service_state(self) -> dict:
        return {
            "next_index": self.next_index,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "shed": self.shed,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "compactions": self.compactions,
            "executor": getattr(self._engine, "name", self.config.executor),
            "reporters": {
                name: dict(counter) for name, counter in sorted(self.reporters.items())
            },
            "admission": self.admission.snapshot(),
        }

    def _write_manifest(self, status: str) -> None:
        with self._completion:
            manifest = RunManifest(
                seed=self.config.seed,
                scale=self.config.scale,
                jobs=self.config.jobs,
                total_messages=self.accepted,
                completed=self.completed,
                status=status,
                stats=self.stats.as_dict(),
                budget=self.config.budget,
                guard_limits=[list(pair) for pair in self.config.guard_limits or ()] or None,
                storage_faults=self.config.storage_faults,
                storage_fault_seed=self.config.storage_fault_seed,
                service=self._service_state(),
            )
        self.checkpoint.write_manifest(manifest)
