"""Canonical machine-readable run reports.

Serialization is canonical (sorted keys, compact separators, shortest
round-trip float repr), so reports and artifact files are byte-identical
across runs for identical inputs and seeds.  Wall-clock timings are the
one intentionally non-reproducible section; golden comparisons strip them.
"""

from __future__ import annotations

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

    def phase(self, name: str):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                timer.timings_ms[name] = timer.timings_ms.get(name, 0.0) + (
                    (time.perf_counter() - self.t0) * 1000.0
                )
                return False

        return _Ctx()


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
