"""Synthesis-as-a-service: the resilient async job engine (DESIGN.md §15).

The package turns the fast, bounded-time, certified, crash-safe solver
stack into a *service* that survives heavy duplicate traffic:

* :mod:`repro.serve.canonical` — the canonical problem IR hash shared
  by the result cache and the checkpoint journal (content addressing);
* :mod:`repro.serve.cache` — the content-addressed, CRC-guarded result
  cache with single-flight deduplication;
* :mod:`repro.serve.admission` — bounded-queue admission control and
  load shedding along the degradation ladder;
* :mod:`repro.serve.breaker` — the per-problem-class circuit breaker
  over the supervised solver tier;
* :mod:`repro.serve.engine` — the asyncio job engine and TCP server
  behind ``python -m repro serve``;
* :mod:`repro.serve.protocol` — job records and the NDJSON wire
  protocol.

Exports are lazy so that importing a light leaf (the checkpoint journal
imports :mod:`repro.serve.canonical`) never drags in the asyncio engine.
"""

from __future__ import annotations

_EXPORTS = {
    "canonical_json": "repro.serve.canonical",
    "spec_key": "repro.serve.canonical",
    "problem_key": "repro.serve.canonical",
    "canonical_ids": "repro.serve.canonical",
    "structure_table": "repro.serve.canonical",
    "ResultCache": "repro.serve.cache",
    "SingleFlight": "repro.serve.cache",
    "AdmissionController": "repro.serve.admission",
    "AdmissionDecision": "repro.serve.admission",
    "CircuitBreaker": "repro.serve.breaker",
    "ServeConfig": "repro.serve.engine",
    "ServeEngine": "repro.serve.engine",
    "ServeServer": "repro.serve.engine",
    "Job": "repro.serve.protocol",
    "JobState": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "encode_message": "repro.serve.protocol",
    "decode_message": "repro.serve.protocol",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
