"""Content-addressed result cache with single-flight dedup (DESIGN.md §15).

Two layers keep duplicate traffic off the solver:

* :class:`ResultCache` — finished results keyed by
  :func:`repro.serve.canonical.problem_key`, held in memory and
  (optionally) on disk.  Disk entries use the checkpoint journal's
  record codec (:func:`repro.serve.canonical.seal`): canonical JSON
  guarded by a CRC32 over the body, so a torn write or flipped byte is
  *detected* — the damaged entry is evicted with a
  :class:`~repro.errors.CorruptCacheWarning` and the problem re-solved,
  never served.  The ``serve.cache_corrupt`` chaos site flips one byte
  of a record as it is written, exercising exactly that path.
* :class:`SingleFlight` — identical problems submitted while the first
  one is still solving share that solve's future instead of queueing
  their own.  The first claimant is the *leader*; followers coalesce.
  The shared future always resolves with a value (possibly an
  exception instance) — followers inspect it, so an abandoned flight
  never logs "exception was never retrieved".
"""

from __future__ import annotations

import asyncio
import os
import warnings
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.errors import CorruptCacheWarning
from repro.obs import TELEMETRY
from repro.resilience.faults import FAULTS
from repro.serve.canonical import seal, unseal


class ResultCache:
    """Certified results by problem key; CRC-guarded on disk.

    With ``directory=None`` the cache is memory-only (one process's
    lifetime).  With a directory, every stored payload is also written
    to ``<directory>/<key>.json`` as a one-record journal
    (``{"key", "payload", "crc"}`` in canonical JSON), and lookups
    fall through to disk on a memory miss — so a restarted server keeps
    its cache.

    The in-memory layer is an LRU bounded at ``max_entries`` — a
    long-running server must not grow without limit.  Trimming the
    memory layer never loses a disk-backed entry (the record stays on
    disk and reloads on the next lookup); counted as ``trimmed``, which
    is bookkeeping, distinct from ``evicted`` (corruption).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        max_entries: int = 256,
    ) -> None:
        self.directory = directory
        self.max_entries = max(1, max_entries)
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evicted = 0
        self.trimmed = 0
        self.write_failures = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.json")

    def lookup(
        self,
        key: str,
        accept: Optional[Callable[[dict], Optional[dict]]] = None,
    ) -> Optional[dict]:
        """The stored payload for ``key`` (through ``accept``), or None.

        ``accept`` turns the stored payload into the caller's answer, or
        returns None to refuse it (the serve engine's structure-table
        check).  A hit is counted only for an answer; a refused payload
        counts as a miss, like an absent one.

        A disk entry that fails its CRC (or does not parse, or carries
        the wrong key) is *evicted* — unlinked with a
        :class:`CorruptCacheWarning` — and reported as a miss; a
        corrupt record is never served.
        """
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
        elif self.directory is not None:
            payload = self._load(key)
            if payload is not None:
                self._remember(key, payload)
        if payload is not None and accept is not None:
            payload = accept(payload)
        if payload is None:
            self.misses += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("serve.cache_misses")
            return None
        self.hits += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.cache_hits")
        return payload

    def _load(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        reason = None
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                stored_key, payload = unseal(f.read())
        except OSError as exc:
            reason = f"unparseable ({exc.__class__.__name__})"
        except ValueError as exc:
            reason = str(exc)
        else:
            if stored_key != key:
                reason = f"key mismatch (record says {stored_key[:12]}…)"
        if reason is not None:
            self.evicted += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("serve.cache_evicted")
            warnings.warn(
                f"serve cache {path}: evicting corrupt entry: {reason}",
                CorruptCacheWarning,
                stacklevel=2,
            )
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best effort
                pass
            return None
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Remember ``key``'s payload; persist (CRC'd) when disk-backed.

        Disk write failures degrade into telemetry — the server must
        not die because a disk filled; the entry still lives in memory.
        """
        self._remember(key, payload)
        self.stored += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.cache_stores")
        if self.directory is None:
            return
        corrupt = FAULTS.armed and FAULTS.should_fire("serve.cache_corrupt")
        if corrupt:
            # The in-memory copy must rot too, or the fault never
            # reaches the CRC path in this process.
            del self._memory[key]
        line = seal(key, payload, corrupt)
        path = self._path(key)
        try:
            with open(path, "w", encoding="utf-8") as f:
                f.write(line)
                f.flush()
                os.fsync(f.fileno())
        except OSError:
            self.write_failures += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("serve.cache_write_failures")

    def _remember(self, key: str, payload: dict) -> None:
        """Insert as most-recently-used; trim the LRU tail past the cap."""
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.trimmed += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("serve.cache_trimmed")

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "entries": float(len(self._memory)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": (self.hits / total) if total else 0.0,
            "stored": float(self.stored),
            "evicted": float(self.evicted),
            "trimmed": float(self.trimmed),
            "write_failures": float(self.write_failures),
        }


class SingleFlight:
    """One shared future per in-flight problem key."""

    def __init__(self) -> None:
        self._flights: Dict[str, "asyncio.Future"] = {}
        self.coalesced = 0

    def depth(self) -> int:
        return sum(1 for f in self._flights.values() if not f.done())

    def claim(self, key: str) -> Tuple[bool, "asyncio.Future"]:
        """``(leader, future)`` — leader solves, followers await.

        A settled (or absent) flight makes the caller the new leader;
        an open one coalesces the caller onto it.
        """
        future = self._flights.get(key)
        if future is not None and not future.done():
            self.coalesced += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("serve.coalesced")
            return False, future
        future = asyncio.get_running_loop().create_future()
        self._flights[key] = future
        return True, future

    def resolve(self, key: str, value) -> None:
        """Settle ``key``'s flight for every follower.

        ``value`` may be an exception *instance* (a failed flight) —
        it is delivered as a plain result so followers decide how to
        react and an unobserved failure never warns.
        """
        future = self._flights.pop(key, None)
        if future is not None and not future.done():
            future.set_result(value)
