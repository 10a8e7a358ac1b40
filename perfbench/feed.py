"""The serve workload's load generator: one connection, two threads.

A sender thread writes ``submit`` lines; a reader thread reads every
response line the daemon sends back.  One connection fixes the arrival
order, and the daemon numbers messages in arrival order, so the verdict
records are the same on every run.

A phase is either *open loop* (submission ``k`` is due at
``start + k / rate`` and is sent then, however far behind the daemon
is) or *saturating* (``rate`` None: lines are written as fast as the
socket accepts them, so the daemon's own read backpressure sets the
pace).  Each submission is timed from when it was due, so a stalled
sender counts against latency, and the sender's lateness is reported.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
import time


class FeedError(RuntimeError):
    """The daemon answered something no correct run produces."""


class Feed:
    """One session against a live daemon."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        # Default socket options, as ``repro submit`` uses: the figures
        # show what a real client of the daemon sees.
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.cond = threading.Condition()
        #: client id -> monotonic time its verdict line arrived.
        self.done_at: dict[str, float] = {}
        #: message index -> raw verdict line (the correctness digest input).
        self.verdicts: dict[int, bytes] = {}
        #: client id -> op of a terminal refusal (overloaded/rejected/failed).
        self.refused: dict[str, str] = {}
        self.pongs = 0
        self.goodbye = False
        self.error: BaseException | None = None
        self.thread = threading.Thread(target=self._read, name="feed-reader", daemon=True)
        self.thread.start()

    # ------------------------------------------------------------------
    def _read(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    break
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    self._on_line(line + b"\n")
        except (OSError, ValueError) as error:
            with self.cond:
                self.error = error
                self.cond.notify_all()
            return
        with self.cond:
            self.cond.notify_all()

    def _on_line(self, line: bytes) -> None:
        now = time.monotonic()
        payload = json.loads(line)
        op = payload.get("op")
        with self.cond:
            if op == "verdict":
                self.done_at[payload["id"]] = now
                self.verdicts[payload["message_index"]] = line
            elif op in ("overloaded", "rejected", "failed"):
                self.done_at[payload["id"]] = now
                self.refused[payload["id"]] = op
            elif op == "pong":
                self.pongs += 1
            elif op == "goodbye":
                self.goodbye = True
            elif op != "accepted":
                self.error = FeedError(f"unexpected daemon line: {line[:200]!r}")
            self.cond.notify_all()

    def _wait(self, predicate, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self.cond:
            while not predicate():
                if self.error is not None:
                    raise FeedError(f"session failed: {self.error!r}")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FeedError("timed out waiting for the daemon")
                self.cond.wait(min(remaining, 0.5))

    # ------------------------------------------------------------------
    def ping(self, timeout: float = 30.0) -> float:
        """Send one ping; the monotonic time its pong arrived."""
        with self.cond:
            expected = self.pongs + 1
        self.sock.sendall(b'{"op":"ping"}\n')
        self._wait(lambda: self.pongs >= expected, timeout)
        return time.monotonic()

    def phase(self, lines: list[tuple[str, bytes]], rate: float | None,
              timeout: float = 150.0) -> dict:
        """Send ``(client id, line)`` pairs; wait for every answer.

        Returns the due time, send time and answer time of each
        submission (monotonic seconds) plus the refusals.
        """
        due: list[float] = []
        sent: list[float] = []
        start = time.monotonic()
        for k, (_, line) in enumerate(lines):
            if rate is not None:
                target = start + k / rate
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            else:
                target = time.monotonic()
            due.append(target)
            self.sock.sendall(line)
            sent.append(time.monotonic())
        ids = [client_id for client_id, _ in lines]
        self._wait(lambda: all(client_id in self.done_at for client_id in ids), timeout)
        with self.cond:
            answered = [self.done_at[client_id] for client_id in ids]
            refused = {client_id: self.refused[client_id]
                       for client_id in ids if client_id in self.refused}
        return {"due": due, "sent": sent, "answered": answered, "refused": refused}

    def close(self, timeout: float = 60.0) -> None:
        """Polite close: ``bye`` flushes owed verdicts, then hang up."""
        try:
            self.sock.sendall(b'{"op":"bye"}\n')
            self._wait(lambda: self.goodbye, timeout)
        finally:
            self.sock.close()
            self.thread.join(timeout=5.0)


def submit_line(client_id: str, reporter: str, eml: bytes) -> bytes:
    """One ``submit`` protocol line."""
    return json.dumps(
        {"op": "submit", "reporter": reporter, "id": client_id,
         "eml": base64.b64encode(eml).decode("ascii")},
        separators=(",", ":"),
    ).encode("ascii") + b"\n"
