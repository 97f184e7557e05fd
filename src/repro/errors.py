"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so downstream users can catch one type.  Subsystems
define their own subclasses here (rather than in their own packages) to
avoid import cycles between substrate packages.

Failure-handling contract (see DESIGN.md §9 for the full ladder):

* A *recoverable* stage failure — a window ILP that times out or turns
  infeasible, a lost supervised worker, a routing attempt that
  exhausts its rip-up budget — is **not** allowed to escape as an
  exception from ``ReliabilitySynthesizer.synthesize``.  The stage
  steps down its degradation ladder (shrink the window, go greedy,
  re-solve serially, relax routing-convenient), records the step in
  the run's ``ResilienceReport``, and continues.  A run that degraded
  emits :class:`DegradedResultWarning` exactly once.
* An *unrecoverable* failure — the assay cannot be placed on the grid
  even greedily, routing fails even with relaxed constraints and
  reserved corridors — raises :class:`SynthesisError` (or a subclass)
  once the ladder is exhausted.
* A *budget* failure raises :class:`TimeLimitError`: the configured
  ``time_budget`` ran out at a point where no degraded-but-valid
  result can be produced.  Callers treating latency as a hard bound
  should catch this one type; it deliberately does **not** derive from
  :class:`SynthesisError` so ladder code never confuses "out of time"
  with "infeasible".
* Library code may only swallow :class:`ReproError` (never a blanket
  ``Exception``), and must record what it swallowed — in telemetry, a
  report structure, or the experiment output.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every deliberate error raised by this library."""


class GeometryError(ReproError):
    """Invalid geometric construction (e.g. an empty rectangle)."""


class ModelError(ReproError):
    """Invalid MILP model construction (bad bounds, unknown variable...)."""


class SolverError(ReproError):
    """An MILP/LP solve failed in an unexpected way."""


class InfeasibleError(SolverError):
    """The model was proven infeasible."""

    def __init__(self, message: str = "model is infeasible") -> None:
        super().__init__(message)


class UnboundedError(SolverError):
    """The model was proven unbounded."""

    def __init__(self, message: str = "model is unbounded") -> None:
        super().__init__(message)


class AssayError(ReproError):
    """Invalid bioassay description (cycles, bad volumes, bad ratios...)."""


class SchedulingError(ReproError):
    """The scheduler could not produce a feasible schedule."""


class AssaySpecError(AssayError):
    """A text-format assay spec failed to parse or validate.

    Structured so a *server* can return it as a clean client error
    (DESIGN.md §15) instead of a stack trace: ``line`` and ``column``
    are 1-based positions when known, ``context`` is the offending
    source line.  Derives from :class:`AssayError` so every existing
    ``except AssayError`` keeps working.
    """

    def __init__(
        self,
        message: str,
        *,
        line: "int | None" = None,
        column: "int | None" = None,
        context: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.context = context

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.column is not None:
                where += f", column {self.column}"
            where += ": "
        text = f"{where}{self.message}"
        if self.context is not None:
            text += f"\n  >> {self.context}"
        return text

    def as_dict(self) -> dict:
        """JSON-friendly form for protocol error responses."""
        return {
            "error": self.message,
            "line": self.line,
            "column": self.column,
            "context": self.context,
        }


class ScheduleSpecError(AssaySpecError, SchedulingError):
    """A text-format schedule spec failed to parse or validate.

    Both an :class:`AssaySpecError` (the server returns one structured
    client-error shape for either input file) and a
    :class:`SchedulingError` (existing schedule-parsing callers keep
    their catch clauses).
    """


class ArchitectureError(ReproError):
    """Invalid chip architecture construction or valve operation."""


class PlacementError(ReproError):
    """A device placement is illegal (out of grid, overlap...)."""


class SynthesisError(ReproError):
    """Dynamic-device mapping / synthesis failed."""


class RoutingError(ReproError):
    """No routing path could be found for a required connection."""


class BindingError(ReproError):
    """Traditional-design binding failed (no mixer of a required size...)."""


class WorkerCrashError(SynthesisError):
    """A supervised worker process died instead of answering.

    Raised by :class:`repro.resilience.supervisor.WorkerSupervisor` when
    every watched attempt was lost to a crash, a missed heartbeat, an
    RSS-budget kill or a deadline kill.  Unlike the bare
    ``RuntimeError``/``OSError`` it replaces, it carries the forensic
    record the ladder and the tests need: how many attempts were made,
    how each one ended, and the backoff schedule walked between them.

    Derives from :class:`SynthesisError` on purpose: every existing
    ladder handler that catches a failed mapping solve also catches a
    crashed worker, so supervision composes with the degradation
    ladder instead of adding a new failure channel.
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        exit_code: "int | None" = None,
        signal: "int | None" = None,
        outcomes: "tuple[str, ...]" = (),
        backoff_history: "tuple[float, ...]" = (),
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.exit_code = exit_code
        self.signal = signal
        self.outcomes = tuple(outcomes)
        self.backoff_history = tuple(backoff_history)

    def __str__(self) -> str:
        base = super().__str__()
        how = (
            f"signal {self.signal}"
            if self.signal is not None
            else f"exit code {self.exit_code}"
            if self.exit_code is not None
            else "no exit status"
        )
        backoff = ", ".join(f"{d:.3f}s" for d in self.backoff_history)
        return (
            f"{base} [attempts={self.attempts}, last={how}, "
            f"outcomes={'/'.join(self.outcomes) or 'none'}, "
            f"backoff=[{backoff}]]"
        )


class CheckpointError(ReproError):
    """The checkpoint journal itself is unusable (unwritable directory,
    unreadable file).  Individual corrupt *records* never raise — they
    are skipped with a :class:`CorruptJournalWarning` so a damaged
    journal costs only the damaged entries, never the run."""


class TimeLimitError(ReproError):
    """A whole-run time budget (``Deadline``) expired.

    Raised only where running on would break the latency bound *and* no
    degraded result is possible; stages that can degrade catch their
    own failures and step down the ladder instead of raising this.
    """


class CertificationError(ReproError):
    """An independent certificate or audit check failed.

    Raised only in *strict* certification mode
    (``SynthesisConfig.certify == "strict"`` or
    ``solve(..., certify="strict")``): the solver/synthesizer produced
    an answer, but :mod:`repro.certify` could not verify it against the
    original model or design rules.  In ``"audit"`` mode the same
    failures are recorded on the result (``Solution.stats`` /
    ``SynthesisResult.audit``) without raising.
    """


class AdmissionError(ReproError):
    """The serve engine refused to queue a job (DESIGN.md §15).

    Raised (or recorded on the rejected job) when the bounded queue is
    at capacity, or the ``serve.queue_overflow`` chaos site forces an
    overflow.  Explicit rejection is the last rung of admission
    control — load shedding (shrunken budgets) comes first.
    """


class CorruptCacheWarning(UserWarning):
    """A serve result-cache entry failed its CRC or failed to parse.

    The damaged entry is evicted (never served) and the problem is
    simply re-solved; a warning rather than an error because the cache,
    like the checkpoint journal, is an optimization.
    """


class CorruptJournalWarning(UserWarning):
    """A checkpoint-journal record failed its CRC or failed to parse.

    Emitted once per damaged record (truncated tail line, flipped
    bytes, garbage) with the record index and the reason; the journal
    keeps loading the remaining records.  A warning rather than an
    error because the journal is an *optimization* — a lost record only
    means the corresponding window is re-solved.
    """


class DegradedResultWarning(UserWarning):
    """A synthesis run finished, but only by degrading.

    Emitted once per ``synthesize()`` call whose ``ResilienceReport``
    recorded at least one ladder rung; the warning message carries the
    rung summary.  A warning (not an error) because the result is still
    simulator-valid — it is just not the quality a fully converged run
    would have produced.
    """
