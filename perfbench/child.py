"""Program bootstrap: one fresh interpreter per repetition.

Usage::

    python perfbench/child.py OUT.json [--trace DIR] -- <repro CLI args>

Imports ``repro.cli`` (timing the import), hooks the few calls the
end-to-end metrics need, optionally installs the tracer, then runs the
real CLI entry point.  On exit it writes ``OUT.json``:

- ``cli_import_s``: seconds to import ``repro.cli``;
- ``run_entered`` / ``run_left``: monotonic times around
  ``CorpusRunner.run`` (``repro run`` only), with the run's message
  count, retries and dead letters;
- ``appends``: monotonic time of every record the parent appended to
  the checkpoint, i.e. when each verdict became durable.

These hooks cost one clock read per record; everything else is only
timed with ``--trace``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    out_path = options[0]
    trace_dir = options[options.index("--trace") + 1] if "--trace" in options else None

    started = time.monotonic()
    import repro.cli

    imported = time.monotonic()
    import repro.runner.checkpoint as checkpoint
    import repro.runner.runner as runner

    facts: dict = {"cli_import_s": imported - started, "appends": []}
    appends = facts["appends"]

    run = runner.CorpusRunner.run

    def hooked_run(self, messages):
        facts["run_entered"] = time.monotonic()
        facts["messages"] = len(messages)
        result = run(self, messages)
        facts["run_left"] = time.monotonic()
        facts["retried"] = int(result.stats.retried)
        facts["dead_letters"] = len(result.dead_letters)
        return result

    runner.CorpusRunner.run = hooked_run
    for name in ("append", "append_wire"):
        original = getattr(checkpoint.CheckpointStore, name)

        def hooked_append(self, item, _original=original):
            _original(self, item)
            appends.append(time.monotonic())

        setattr(checkpoint.CheckpointStore, name, hooked_append)

    tracer = None
    if trace_dir is not None:
        from tracing import Tracer, install

        tracer = Tracer(trace_dir)
        install(tracer)
        tracer.spans.append([next(tracer.ids), "cli.import", started, imported, -1, -1,
                             True, 0])
    try:
        code = repro.cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump("main")
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(facts, handle)
    return code


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
