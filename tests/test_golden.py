"""Golden digest: the exported records must not drift across commits.

Every other byte-identity check compares backends or job counts within
one commit, so a rewrite that shifts all of them the same way passes
those.  This test pins the sha256 of ``repro run --scale 0.05 --seed
2024 --jobs 1 --export``, whose records carry OCR'd and QR-decoded URLs
and faulty-QR flags.

``golden/export_scale005_seed2024.json.gz`` is that export, kept only
so a mismatch can name the first record and field that changed.  A
change meant to alter the records must regenerate both the file and
``GOLDEN_EXPORT_SHA256`` and say why.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

from repro.cli import main

GOLDEN_ARGS = ["run", "--scale", "0.05", "--seed", "2024", "--jobs", "1"]
GOLDEN_EXPORT_SHA256 = "625f7fac43f372dacea2fe041b028145916fe5016ec2adb7e4cf81748d52dabc"
GOLDEN_EXPORT = Path(__file__).parent / "golden" / "export_scale005_seed2024.json.gz"


def _first_difference(expected, actual, path: str) -> str | None:
    """Return the path and both values of the first differing leaf."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in list(expected) + [key for key in actual if key not in expected]:
            if key not in expected or key not in actual:
                return f"{path}.{key}: present on one side only"
            found = _first_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = _first_difference(left, right, f"{path}[{index}]")
            if found:
                return found
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{path}: golden {expected!r} != now {actual!r}"
    return None


def _describe_drift(export: bytes) -> str:
    golden = json.loads(gzip.decompress(GOLDEN_EXPORT.read_bytes()))
    return (
        f"export sha256 {hashlib.sha256(export).hexdigest()} != golden "
        f"{GOLDEN_EXPORT_SHA256}; first difference: "
        f"{_first_difference(golden, json.loads(export), 'export')}"
    )


def test_golden_fixture_matches_digest():
    export = gzip.decompress(GOLDEN_EXPORT.read_bytes())
    assert hashlib.sha256(export).hexdigest() == GOLDEN_EXPORT_SHA256


def test_export_matches_golden_digest(tmp_path, capsys):
    export_path = tmp_path / "golden.json"
    assert main([*GOLDEN_ARGS, "--export", str(export_path)]) == 0
    capsys.readouterr()
    export = export_path.read_bytes()
    assert hashlib.sha256(export).hexdigest() == GOLDEN_EXPORT_SHA256, _describe_drift(export)


def test_first_difference_names_record_and_field():
    golden = {"records": [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}]}
    now = {"records": [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [4]}]}
    assert _first_difference(golden, now, "export") == "export.records[1].b[0]: golden 3 != now 4"
    assert _first_difference(golden, golden, "export") is None
