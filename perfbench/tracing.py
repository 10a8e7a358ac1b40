"""Outside-in tracing: spans around calls into each layer of ``repro``.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
public functions and methods with timing wrappers *where the calling
module looks the name up* (``repro.mail.parser.ocr_image``, not
``repro.imaging.ocr.ocr_image``), so the program's own calls go through
them.  It must run before the process pool forks, so forked workers
inherit the wrappers; each worker then writes its own span file when
it stops, and :func:`load` merges the files.

A span is ``[id, name, start, end, parent, request, ok, size]``:
monotonic seconds (one clock for every process on the host), the id of
the enclosing span on the same thread (-1 at top level), the message
index the work belongs to (taken from ``CrawlerBox.analyze`` and
inherited by every span under it), whether the call returned rather
than raised, and a byte count where one is meaningful (result frames).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import threading
import time


class Tracer:
    """Spans, samples and counters of one process, kept in memory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker drops its parent's spans)."""
        self.spans: list[list] = []
        self.samples: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.local = threading.local()
        self.ids = itertools.count()

    def wrap(self, owner, attr: str, name: str, request=None, size=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``request(args, kwargs)`` names the message a top-level call
        works on; ``size(args)`` measures its input in bytes.
        """
        original = getattr(owner, attr)
        tracer = self
        clock = time.monotonic

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = tracer.local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                parent_id, rid = parent[0], parent[5]
            else:
                parent_id, rid = -1, -1
            if request is not None:
                rid = request(args, kwargs)
            span = [next(tracer.ids), name, clock(), 0.0, parent_id, rid, True,
                    size(args) if size is not None else 0]
            tracer.spans.append(span)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[6] = False
                raise
            finally:
                span[3] = clock()
                stack.pop()

        setattr(owner, attr, traced)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def dump(self, tag: str) -> None:
        """Write this process's spans to ``<directory>/spans-<tag>.json``."""
        payload = {"pid": os.getpid(), "tag": tag, "spans": self.spans,
                   "samples": self.samples, "counters": self.counters}
        path = os.path.join(self.directory, f"spans-{tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _message_index(args, kwargs) -> int:
    if "message_index" in kwargs:
        return int(kwargs["message_index"])
    return int(args[2]) if len(args) > 2 else 0


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported program."""
    import repro.browser.session as browser_session
    import repro.core.export as export
    import repro.core.pipeline as pipeline
    import repro.core.spearphish as spearphish
    import repro.core.stages.builtin as builtin
    import repro.crawlers.base as crawlers
    import repro.dataset.generator as generator
    import repro.enrichment.enricher as enricher
    import repro.js.interp as js_interp
    import repro.js.stdlib as js_stdlib
    import repro.kits.lures as lures
    import repro.mail.guard as guard
    import repro.mail.ingest as ingest
    import repro.mail.parser as parser
    import repro.pdfdoc.document as pdfdoc
    import repro.qr.encoder as qr_encoder
    import repro.runner.checkpoint as checkpoint
    import repro.runner.executor as executor
    import repro.runner.runner as runner
    import repro.serve.scheduler as scheduler
    import repro.serve.server as server
    import repro.web.network as network

    wrap = tracer.wrap
    # dataset + qr encode (corpus generation, parent and every worker)
    wrap(generator.CorpusGenerator, "generate", "dataset.generate")
    wrap(lures, "qr_image", "qr.encode")
    wrap(qr_encoder, "penalty_score", "qr.penalty")
    # runner
    wrap(runner.CorpusRunner, "run", "runner.run")
    wrap(executor, "unpack_frame", "runner.frame", size=lambda args: len(args[0]))
    # core
    wrap(pipeline.CrawlerBox, "analyze", "core.analyze", request=_message_index)
    wrap(export, "record_to_wire", "core.wire")
    for cls, stage in ((builtin.AuthStage, "auth"), (builtin.ParseStage, "parse"),
                       (builtin.DynamicHtmlStage, "dynamic_html"),
                       (builtin.CrawlStage, "crawl"), (builtin.ClassifyStage, "classify"),
                       (builtin.SpearStage, "spear"), (builtin.EnrichStage, "enrich")):
        wrap(cls, "run", f"stage.{stage}")
    # mail
    wrap(guard.MessageGuard, "inspect", "mail.guard")
    wrap(parser.EmailParser, "parse", "mail.parse")
    wrap(builtin, "evaluate_authentication", "mail.auth")
    wrap(ingest, "ingest_eml_bytes", "mail.ingest")
    # imaging, qr decode, pdf
    wrap(parser, "ocr_image", "imaging.ocr")
    wrap(parser, "decode_qr_image", "qr.decode")
    wrap(pdfdoc.PdfDocument, "rasterize_pages", "pdf.rasterize")
    for module in (builtin, spearphish):  # spearphish hashes the reference portals
        wrap(module, "phash", "imaging.phash")
        wrap(module, "dhash", "imaging.dhash")
    # crawlers, browser, js, web
    wrap(crawlers.Crawler, "crawl_url", "crawl.url")
    wrap(crawlers.Crawler, "crawl_html", "crawl.html")
    wrap(js_stdlib, "install_stdlib", "browser.stdlib")
    wrap(browser_session, "install_browser_hosts", "browser.hosts")
    wrap(browser_session, "render_visual", "browser.render")
    wrap(js_interp.Interpreter, "run", "js.run")
    wrap(network.Network, "request", "web.request")
    # enrichment
    wrap(enricher.Enricher, "enrich", "enrich")
    # storage
    wrap(checkpoint.CheckpointStore, "append", "storage.append")
    wrap(checkpoint.CheckpointStore, "append_wire", "storage.append")
    wrap(checkpoint.CheckpointStore, "sync", "storage.sync")
    wrap(checkpoint.CheckpointStore, "write_manifest", "storage.manifest")
    wrap(export, "save_records", "storage.export")
    # serve
    _install_serve(tracer, server, scheduler)
    _install_worker_dump(tracer, executor)


def _install_serve(tracer: Tracer, server, scheduler) -> None:
    """Serve spans, plus queue-wait and backlog samples and the daemon's
    final shed/rejected/failed counters."""
    wrap = tracer.wrap
    wrap(server.ServeDaemon, "_handle_submit", "serve.submit")
    wrap(server.ServeDaemon, "_on_result", "serve.verdict")
    wrap(server._Session, "send_raw", "serve.send")

    handle_submit = server.ServeDaemon._handle_submit

    def submit_and_sample(daemon, *args, **kwargs):
        try:
            return handle_submit(daemon, *args, **kwargs)
        finally:
            tracer.sample("serve.backlog", daemon._backlog())

    server.ServeDaemon._handle_submit = submit_and_sample

    # Queue wait: FairScheduler.push -> the next_batch that hands it out.
    pushed: dict[int, float] = {}
    push, next_batch = scheduler.FairScheduler.push, scheduler.FairScheduler.next_batch

    def timed_push(self, reporter, item):
        pushed[id(item)] = time.monotonic()
        return push(self, reporter, item)

    def timed_next_batch(self, *args, **kwargs):
        batch = next_batch(self, *args, **kwargs)
        now = time.monotonic()
        for item in batch:
            queued = pushed.pop(id(item), None)
            if queued is not None:
                tracer.sample("serve.queue_wait", now - queued)
        return batch

    scheduler.FairScheduler.push = timed_push
    scheduler.FairScheduler.next_batch = timed_next_batch

    wait = server.ServeDaemon.wait

    def counted_wait(daemon):
        code = wait(daemon)
        for key in ("shed", "rejected", "failed"):
            tracer.count(f"serve.{key}", int(getattr(daemon, key)))
        return code

    server.ServeDaemon.wait = counted_wait


def _install_worker_dump(tracer: Tracer, executor) -> None:
    """Forked pool workers keep their own spans and write them on exit.

    A worker leaves either through a ``stop`` command (the wrapped
    entry point returns) or through SIGTERM (the pool tears down a
    parked warm pool at interpreter exit); both paths write the file.
    """
    worker_main = executor._worker_main

    def traced_worker_main(worker_id, config, inq, outq):
        tracer.reset()
        tag = f"worker-{os.getpid()}"

        def on_term(signum, frame):
            tracer.dump(tag)
            os._exit(0)

        signal.signal(signal.SIGTERM, on_term)
        try:
            return worker_main(worker_id, config, inq, outq)
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            tracer.dump(tag)

    executor._worker_main = traced_worker_main


def load(directory: str) -> list[dict]:
    """Every span file under ``directory``, parent process first."""
    files = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                files.append(json.load(handle))
    files.sort(key=lambda payload: payload["tag"] != "main")
    return files
