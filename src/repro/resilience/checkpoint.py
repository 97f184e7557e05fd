"""Crash-safe checkpoint journal for certified mapping solutions.

DESIGN.md §14.  A large windowed synthesis is a sequence of expensive,
independent-given-their-spec window solves; when the process dies (power
loss, OOM kill, a ``kill -9`` from an impatient operator) every one of
those solves is lost.  The journal makes them durable:

* **append-only JSONL** — one record per line, written with a single
  ``write()`` + ``flush()`` + ``fsync()``, so a crash can only damage
  the *last* line (a torn write), never rewrite history;
* **per-record CRC** — every line carries a CRC32 over the canonical
  JSON of its body; a damaged record (truncated tail, flipped bytes,
  garbage) fails the CRC, is skipped with a
  :class:`~repro.errors.CorruptJournalWarning`, and costs exactly one
  re-solve — loading never raises;
* **content-hash keys** — records are keyed by a SHA-256 over the
  *canonicalized* :class:`~repro.core.mapping_model.MappingSpec` (grid,
  tasks, committed devices, base load, every constraint switch, and the
  :class:`~repro.architecture.health.ChipHealth` mask), so a resumed
  run replays a record only for the byte-identical subproblem — a
  different seed window, a remap after new faults, or an edited assay
  simply misses;
* **certify-on-replay** — a record is never trusted.  Replay rebuilds
  the window's ILP, lifts the stored placements to a full variable
  vector (:func:`~repro.core.mapping_model.complete_solution`), checks
  every model row, and runs the exact-arithmetic MILP replay of
  :func:`repro.certify.certify_assignment`; anything that does not
  certify — including a journal tampered with CRC recomputed — is
  rejected and re-solved.  Certification happens here, at replay, so
  the write path stays one hashed JSON line per solve.

Each successful replay engages the ``checkpoint_resume`` ladder rung;
hits/misses/rejections land in ``checkpoint.*`` telemetry and the
``python -m repro profile`` report.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional

from repro.architecture.device import Placement
from repro.architecture.device_types import device_type
from repro.errors import ArchitectureError, CheckpointError, CorruptJournalWarning
from repro.geometry import Point
from repro.obs import TELEMETRY
from repro.resilience.faults import FAULTS
from repro.resilience.report import DegradationLadder

# Canonicalization is shared with the serve result cache (DESIGN.md §15):
# both key content by the same canonical JSON + SHA-256 scheme and write
# records with the same CRC codec (``seal`` / ``unseal``), and the
# regression test in tests/serve/test_canonical.py pins spec_key
# byte-identical so existing journals keep resuming.
from repro.serve.canonical import seal, spec_key, unseal

_JOURNAL_NAME = "journal.jsonl"


def _serialize_result(result) -> dict:
    return {
        "placements": {
            name: [
                p.device_type.width,
                p.device_type.height,
                p.corner.x,
                p.corner.y,
            ]
            for name, p in result.placements.items()
        },
        "objective": result.objective,
        "mapper": result.mapper,
        "used_overlaps": [list(p) for p in result.used_overlaps],
        "optimal": bool(result.optimal),
    }


def _deserialize_placements(payload: dict) -> Dict[str, Placement]:
    placements: Dict[str, Placement] = {}
    for name, (width, height, x, y) in payload["placements"].items():
        placements[name] = Placement(device_type(width, height), Point(x, y))
    return placements


class CheckpointJournal:
    """Append-only, CRC-guarded journal of certified window solutions.

    One instance serves a whole synthesis run (and any number of
    resumed runs pointed at the same directory).  Thread-compatible in
    the way the mappers need: lookups/appends happen only in the
    parent process's mapping loop, never in a supervised worker (a
    worker's mapper gets no journal; the parent records the result it
    receives).
    """

    def __init__(
        self,
        directory: str,
        *,
        ladder: Optional[DegradationLadder] = None,
    ) -> None:
        self.directory = directory
        self.ladder = ladder
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.appended = 0
        self.corrupt = 0
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {directory!r}: {exc}"
            ) from exc
        self.path = os.path.join(directory, _JOURNAL_NAME)
        self._records: Dict[str, dict] = {}
        self._load()
        try:
            self._file = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(
                f"cannot open checkpoint journal {self.path!r}: {exc}"
            ) from exc

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as f:
                lines = f.readlines()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint journal {self.path!r}: {exc}"
            ) from exc
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                key, payload = unseal(line)
            except ValueError as exc:
                self.corrupt += 1
                if TELEMETRY.enabled:
                    TELEMETRY.count("checkpoint.corrupt_records")
                warnings.warn(
                    f"checkpoint journal {self.path}: skipping record "
                    f"{index + 1}: {exc}",
                    CorruptJournalWarning,
                    stacklevel=2,
                )
                continue
            # Last write wins: a re-solved window supersedes its
            # earlier record.
            self._records[key] = payload

    def __len__(self) -> int:
        return len(self._records)

    # -- replay -----------------------------------------------------------

    def replay(self, spec):
        """A certified :class:`MappingResult` for ``spec``, or None.

        Returns None on a journal miss *and* on any record that fails
        certification — the caller solves normally in both cases, so a
        damaged or tampered journal can cost time but never correctness.
        """
        key = spec_key(spec)
        payload = self._records.get(key)
        if payload is None:
            self.misses += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("checkpoint.misses")
            return None
        result = self._certify(spec, payload)
        if result is None:
            self.rejected += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("checkpoint.rejected")
            warnings.warn(
                f"checkpoint journal {self.path}: record {key[:12]}… "
                "failed certification; re-solving",
                CorruptJournalWarning,
                stacklevel=2,
            )
            return None
        self.hits += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("checkpoint.hits")
        if self.ladder is not None:
            self.ladder.engage(
                "mapping",
                DegradationLadder.CHECKPOINT_RESUME,
                f"replayed {len(result.placements)} placement(s) "
                f"from {key[:12]}…",
            )
        return result

    def _certify(self, spec, payload):
        """Rebuild the model and certify the stored placements."""
        # Deferred imports: mapping_model/certify import repro.core back.
        from repro.certify import certify_assignment
        from repro.core.mapping_model import (
            MappingModelBuilder,
            complete_solution,
        )
        from repro.core.mappers import MappingResult

        try:
            placements = _deserialize_placements(payload)
            objective = int(payload["objective"])
            used_overlaps = [
                (a, b) for a, b in payload.get("used_overlaps", [])
            ]
            optimal = bool(payload.get("optimal", False))
        except (ArchitectureError, KeyError, TypeError, ValueError):
            return None
        built = MappingModelBuilder(spec).build()
        values = complete_solution(built, placements)
        if values is None:
            return None
        if built.model.check_solution(values):
            return None
        cert = certify_assignment(built.model, values)
        if cert.status != "certified":
            return None
        replayed = int(round(values[built.w]))
        if replayed != objective:
            return None  # payload lies about its own objective
        return MappingResult(
            placements=placements,
            objective=objective,
            mapper=payload.get("mapper", "checkpoint"),
            used_overlaps=used_overlaps,
            wall_time=0.0,
            # Optimality is the original solver's claim; feasibility and
            # the objective were just re-proven, and the content hash
            # pins the claim to this exact subproblem.
            optimal=optimal,
            stats={"checkpoint_replayed": 1.0},
        )

    # -- recording --------------------------------------------------------

    def record(self, spec, result) -> None:
        """Append one solved window; fsync before returning.

        Failures to *write* degrade silently into telemetry (the run
        must not die because a disk filled); the chaos site
        ``checkpoint.corrupt`` flips a byte of the serialized line to
        exercise the load-time CRC path.
        """
        key = spec_key(spec)
        payload = _serialize_result(result)
        line = seal(
            key,
            payload,
            FAULTS.armed and FAULTS.should_fire("checkpoint.corrupt"),
        )
        try:
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
        except (OSError, ValueError):
            if TELEMETRY.enabled:
                TELEMETRY.count("checkpoint.write_failures")
            return
        self._records[key] = payload
        self.appended += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("checkpoint.appends")

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        except (OSError, ValueError):  # pragma: no cover - best effort
            pass

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
