"""Canonical machine-readable run reports.

Serialization is canonical (sorted keys, compact separators, shortest
round-trip float repr), so reports and artifact files are byte-identical
across runs for identical inputs and seeds.  Wall-clock timings are the
one intentionally non-reproducible section; golden comparisons strip them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time

REPORT_SCHEMA = "approxdiag/report/v1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class PhaseTimer:
    """Collects wall milliseconds per named phase."""

    def __init__(self):
        self.timings_ms: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        """Add the block's wall time to ``name``, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - t0) * 1000.0
            self.timings_ms[name] = self.timings_ms.get(name, 0.0) + elapsed


def run_report(
    command: str,
    *,
    config_digest: str | None = None,
    parameters: dict | None = None,
    timings_ms: dict | None = None,
    counts: dict | None = None,
    verdict=None,
) -> dict:
    doc = {"schema": REPORT_SCHEMA, "command": command}
    if config_digest is not None:
        doc["config_digest"] = config_digest
    if parameters:
        doc["parameters"] = parameters
    if counts:
        doc["counts"] = counts
    if verdict is not None:
        doc["verdict"] = verdict
    if timings_ms is not None:
        doc["timings_ms"] = {k: round(v, 3) for k, v in timings_ms.items()}
    return doc


def strip_timings(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "timings_ms"}
