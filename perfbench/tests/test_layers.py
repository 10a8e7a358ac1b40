"""Span arithmetic: outermost-only inclusive time, self time, residual."""

from layers import layer_metrics, union_length


def _span(span_id, name, start, end, parent=-1, ok=True, size=0):
    return [span_id, name, start, end, parent, -1, ok, size]


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_layer_metrics_from_spans():
    main = {"pid": 1, "tag": "main", "samples": {"serve.queue_wait": [0.002, 0.004]},
            "counters": {"serve.shed": 0}, "spans": [
                _span(0, "cli.import", 0.0, 1.0),
                _span(1, "serve.submit", 2.0, 3.0),
                _span(2, "mail.ingest", 2.2, 2.8, parent=1),
                _span(3, "js.run", 4.0, 5.0),
                _span(4, "js.run", 4.2, 4.6, parent=3),  # recursion: not counted again
                _span(5, "qr.decode", 5.0, 5.1),
                _span(6, "qr.decode", 5.1, 5.2, ok=False),
            ]}
    values = layer_metrics([main], {"cli_import_s": 1.0}, wall=10.0, overhead=0.5,
                           loadgen={"sent": 3, "late_ms": [1.0, 2.0]})
    assert values["js.run_s"] == 1.0
    assert abs(values["serve.admit_s"] - 0.4) < 1e-9
    assert values["mail.ingest_calls"] == 1
    assert values["qr.decode_ok_ratio"] == 0.5
    assert abs(values["trace.residual_s"] - (10.0 - 1.0 - 1.0 - 1.0 - 0.2)) < 1e-9
    assert values["trace.overhead_s"] == 0.5
    assert values["loadgen.sent"] == 3
