"""Per-layer metrics from the span files of one traced repetition.

Times are *inclusive* and count only the outermost span of a name on
each thread (a recursive call is not counted twice); they are summed
over threads and processes, so on a parallel run they are busy time,
not wall time.  ``serve.admit_s`` is the one *self* time: the submit
handler's duration minus its ``mail.ingest`` child, i.e. admission and
queueing.  Counts include every call.
"""

from __future__ import annotations

import statistics

#: (metric, unit) in report order; the BENCHMARK.json ``per_layer`` list.
METRICS = (
    ("cli.import_s", "s"),
    ("dataset.generate_s", "s"), ("dataset.generate_calls", "count"),
    ("qr.encode_s", "s"), ("qr.penalty_s", "s"), ("qr.penalty_calls", "count"),
    ("runner.run_s", "s"), ("runner.first_record_s", "s"), ("runner.frames", "count"),
    ("runner.frame_bytes", "bytes"), ("runner.retries", "count"),
    ("runner.dead_letters", "count"),
    ("core.analyze_calls", "count"), ("core.analyze_s", "s"),
    ("core.analyze_p50_ms", "ms"), ("core.analyze_p99_ms", "ms"), ("core.wire_s", "s"),
    ("stage.auth_s", "s"), ("stage.parse_s", "s"), ("stage.dynamic_html_s", "s"),
    ("stage.crawl_s", "s"), ("stage.classify_s", "s"), ("stage.spear_s", "s"),
    ("stage.enrich_s", "s"),
    ("mail.guard_s", "s"), ("mail.parse_s", "s"), ("mail.auth_s", "s"),
    ("mail.ingest_s", "s"), ("mail.ingest_calls", "count"),
    ("imaging.ocr_s", "s"), ("imaging.ocr_calls", "count"), ("imaging.ocr_p99_ms", "ms"),
    ("qr.decode_s", "s"), ("qr.decode_calls", "count"), ("qr.decode_ok_ratio", "ratio"),
    ("pdf.rasterize_s", "s"), ("imaging.phash_s", "s"), ("imaging.dhash_s", "s"),
    ("crawl.url_s", "s"), ("crawl.url_calls", "count"), ("crawl.html_s", "s"),
    ("browser.realm_setups", "count"), ("browser.realm_setup_s", "s"),
    ("browser.render_s", "s"), ("js.run_s", "s"),
    ("web.requests", "count"), ("web.request_s", "s"),
    ("enrich.calls", "count"), ("enrich.s", "s"),
    ("storage.appends", "count"), ("storage.append_s", "s"), ("storage.sync_s", "s"),
    ("storage.manifest_s", "s"), ("storage.export_s", "s"),
    ("serve.admit_s", "s"), ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"), ("serve.verdict_send_s", "s"),
    ("serve.shed", "count"), ("serve.rejected", "count"), ("serve.failed", "count"),
    ("serve.backlog_max", "count"),
    ("loadgen.sent", "count"), ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_s", "s"), ("trace.residual_s", "s"),
)

#: Spans whose inclusive seconds are reported as "<name>_s".
_TIMED = (
    "dataset.generate", "qr.encode", "qr.penalty", "runner.run", "core.analyze",
    "core.wire", "stage.auth", "stage.parse", "stage.dynamic_html", "stage.crawl",
    "stage.classify", "stage.spear", "stage.enrich", "mail.guard", "mail.parse",
    "mail.auth", "mail.ingest", "imaging.ocr", "qr.decode", "pdf.rasterize",
    "imaging.phash", "imaging.dhash", "crawl.url", "crawl.html", "browser.render",
    "js.run", "web.request", "enrich", "storage.append", "storage.sync",
    "storage.manifest", "storage.export",
)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive); 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class SpanIndex:
    """Spans of every process of one repetition, grouped by name."""

    def __init__(self, files: list[dict]):
        self.files = files
        self.by_name: dict[str, list[list]] = {}
        self.samples: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        for payload in files:
            by_id = {span[0]: span for span in payload["spans"]}
            for span in payload["spans"]:
                # span[8]: outermost of its name on this stack
                outermost = not self._nested_in_same_name(span, by_id)
                self.by_name.setdefault(span[1], []).append(span + [outermost])
            for name, values in payload["samples"].items():
                self.samples.setdefault(name, []).extend(values)
            for name, value in payload["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
        self.children: dict[tuple[int, int], list[list]] = {}
        for payload in files:
            for span in payload["spans"]:
                self.children.setdefault((payload["pid"], span[4]), []).append(span)

    @staticmethod
    def _nested_in_same_name(span: list, by_id: dict) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] == span[1]:
                return True
            parent = by_id.get(parent[4])
        return False

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def seconds(self, name: str) -> float:
        return sum(span[3] - span[2] for span in self.by_name.get(name, ()) if span[8])

    def durations_ms(self, name: str) -> list[float]:
        return [(span[3] - span[2]) * 1000.0 for span in self.by_name.get(name, ())]


def layer_metrics(files: list[dict], facts: dict, wall: float, overhead: float,
                  loadgen: dict) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by name.

    ``facts`` is the main process's bootstrap record, ``wall`` the
    traced repetition's wall clock, ``overhead`` traced minus untraced
    wall, ``loadgen`` the load generator's ``sent`` and ``late_ms``.
    """
    index = SpanIndex(files)
    values: dict[str, float] = {}
    for name in _TIMED:
        values["enrich.s" if name == "enrich" else f"{name}_s"] = index.seconds(name)
    values["cli.import_s"] = facts.get("cli_import_s", 0.0)
    values["dataset.generate_calls"] = index.calls("dataset.generate")
    values["qr.penalty_calls"] = index.calls("qr.penalty")

    runs = index.by_name.get("runner.run", [])
    appends = sorted(span[2] for span in index.by_name.get("storage.append", []))
    first = 0.0
    if runs:
        started = min(span[2] for span in runs)
        later = [stamp for stamp in appends if stamp >= started]
        first = later[0] - started if later else 0.0
    values["runner.first_record_s"] = first
    frames = index.by_name.get("runner.frame", [])
    values["runner.frames"] = len(frames)
    values["runner.frame_bytes"] = sum(span[7] for span in frames)
    values["runner.retries"] = facts.get("retried", 0)
    values["runner.dead_letters"] = facts.get("dead_letters", 0)

    analyze = index.durations_ms("core.analyze")
    values["core.analyze_calls"] = len(analyze)
    values["core.analyze_p50_ms"] = quantile(analyze, 50)
    values["core.analyze_p99_ms"] = quantile(analyze, 99)
    values["mail.ingest_calls"] = index.calls("mail.ingest")
    values["imaging.ocr_calls"] = index.calls("imaging.ocr")
    values["imaging.ocr_p99_ms"] = quantile(index.durations_ms("imaging.ocr"), 99)
    decodes = index.by_name.get("qr.decode", [])
    values["qr.decode_calls"] = len(decodes)
    values["qr.decode_ok_ratio"] = (
        sum(1 for span in decodes if span[6]) / len(decodes) if decodes else 0.0
    )
    values["crawl.url_calls"] = index.calls("crawl.url")
    values["browser.realm_setups"] = index.calls("browser.hosts")
    values["browser.realm_setup_s"] = index.seconds("browser.stdlib") + index.seconds(
        "browser.hosts"
    )
    values["web.requests"] = index.calls("web.request")
    values["enrich.calls"] = index.calls("enrich")
    values["storage.appends"] = index.calls("storage.append")

    values["serve.admit_s"] = _self_seconds(index, "serve.submit")
    waits = [wait * 1000.0 for wait in index.samples.get("serve.queue_wait", [])]
    values["serve.queue_wait_p50_ms"] = quantile(waits, 50)
    values["serve.queue_wait_p99_ms"] = quantile(waits, 99)
    values["serve.verdict_send_s"] = _child_seconds(index, "serve.verdict", "serve.send")
    for key in ("shed", "rejected", "failed"):
        values[f"serve.{key}"] = index.counters.get(f"serve.{key}", 0)
    values["serve.backlog_max"] = max(index.samples.get("serve.backlog", [0]))

    values["loadgen.sent"] = loadgen.get("sent", 0)
    values["loadgen.late_p99_ms"] = quantile(loadgen.get("late_ms", []), 99)
    values["trace.overhead_s"] = overhead
    main = files[0]["spans"] if files and files[0]["tag"] == "main" else []
    covered = union_length([(span[2], span[3]) for span in main if span[4] == -1])
    values["trace.residual_s"] = wall - covered
    return values


def _self_seconds(index: SpanIndex, name: str) -> float:
    total = 0.0
    for payload in index.files:
        for span in payload["spans"]:
            if span[1] != name:
                continue
            inner = index.children.get((payload["pid"], span[0]), [])
            total += (span[3] - span[2]) - union_length([(c[2], c[3]) for c in inner])
    return total


def _child_seconds(index: SpanIndex, parent_name: str, child_name: str) -> float:
    total = 0.0
    for payload in index.files:
        names = {span[0]: span[1] for span in payload["spans"]}
        for span in payload["spans"]:
            if span[1] == child_name and names.get(span[4]) == parent_name:
                total += span[3] - span[2]
    return total
