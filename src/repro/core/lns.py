"""Large-neighborhood search over dynamic-device mappings.

The improvement lane of the anytime race (DESIGN.md §13).  Starting
from any feasible placement map, each round *destroys* a small task set
— the tasks pumping on a current peak valve, plus a few random extras
for diversification — and *repairs* it with the greedy balancer on the
same sub-problem construction the rolling-horizon mapper uses
(:func:`repro.core.mappers.window_subspec`), so the repair sees every
kept placement as a fixed device and the true whole-chip base load.

Acceptance is lexicographic on :meth:`LoadLedger.measure` — first the
peak pump load (the paper's objective), then the number of valves
sitting at that peak — mirroring the windowed mapper's refinement
rule.  Rejected repairs are reverted incrementally (O(ring) per task),
never by rebuilding the ledger.

The search is deterministic for a given ``seed``: destroy sets are
drawn from a private :class:`random.Random`, the repair is the
deterministic greedy balancer, and rounds stop on the deadline, the
round budget, or an optional external stop signal (the race sets one
when the exact lane finishes).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional

from repro.architecture.device import Placement
from repro.errors import SynthesisError
from repro.resilience import Deadline
from repro.core.mapping_model import MappingSpec
from repro.core.mappers import GreedyMapper, LoadLedger, window_subspec
from repro.core.tasks import MappingTask

#: Most tasks destroyed per round.  Repair cost is roughly linear in
#: the destroy-set size while the chance a greedy repair beats the
#: incumbent drops sharply past a handful of freed tasks.
_DESTROY_CAP = 6

#: Random extra tasks destroyed alongside the peak culprits — the
#: diversification knob that keeps a deterministic repair from cycling.
_EXTRA_DESTROY = 2


class LargeNeighborhoodSearch:
    """Destroy/repair improvement over a feasible mapping.

    ``on_improve(placements, peak)`` fires after every accepted round
    with a *copy* of the improved placement map; the anytime race uses
    it to push incumbents at the exact lane without waiting for the
    search to finish.
    """

    def __init__(
        self,
        spec: MappingSpec,
        *,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.ordered: List[MappingTask] = sorted(
            spec.tasks, key=lambda t: (t.start, t.name)
        )
        self.rng = random.Random(seed)

    # -- destroy ---------------------------------------------------------

    def _destroy_set(
        self,
        placements: Dict[str, Placement],
        ledger: LoadLedger,
    ) -> List[MappingTask]:
        """Tasks pumping on one random peak valve, plus random extras."""
        peak_cells = ledger.peak_cells()
        if not peak_cells:
            return []
        target = self.rng.choice(sorted(peak_cells))
        culprits = [
            task
            for task in self.ordered
            if task.pump_rate > 0
            and task.name in placements
            and target in placements[task.name].pump_cells()
        ]
        self.rng.shuffle(culprits)
        chosen = culprits[:_DESTROY_CAP]
        chosen_names = {t.name for t in chosen}
        extras = [
            task
            for task in self.ordered
            if task.name in placements and task.name not in chosen_names
        ]
        if extras:
            chosen.extend(
                self.rng.sample(extras, min(_EXTRA_DESTROY, len(extras)))
            )
        # Window order matters to the greedy repair: keep start order.
        chosen.sort(key=lambda t: (t.start, t.name))
        return chosen

    # -- the loop --------------------------------------------------------

    def run(
        self,
        placements: Dict[str, Placement],
        *,
        deadline: Optional[Deadline] = None,
        max_rounds: Optional[int] = None,
        stall_limit: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        on_improve: Optional[Callable[[Dict[str, Placement], int], None]] = None,
    ) -> Dict[str, float]:
        """Improve ``placements`` in place; return round statistics.

        Stops when the deadline expires, ``max_rounds`` is reached,
        ``stall_limit`` consecutive rounds fail to improve, or
        ``should_stop()`` turns true (checked once per round).  The
        input map always holds the best placements found — rejected
        rounds are fully reverted before the next one starts.
        """
        start = time.monotonic()
        ledger = LoadLedger.from_placements(self.spec, self.ordered, placements)
        best = ledger.measure()
        stall = 0
        stats = {
            "lns_rounds": 0.0,
            "lns_accepted": 0.0,
            "lns_repair_failures": 0.0,
            "lns_seconds": 0.0,
        }
        while True:
            if max_rounds is not None and stats["lns_rounds"] >= max_rounds:
                break
            if stall_limit is not None and stall >= stall_limit:
                break
            if deadline is not None and deadline.expired:
                break
            if should_stop is not None and should_stop():
                break
            window = self._destroy_set(placements, ledger)
            if not window:
                break
            stats["lns_rounds"] += 1
            saved = {t.name: placements.pop(t.name) for t in window}
            for task in window:
                ledger.remove(task, saved[task.name])
            sub = window_subspec(
                self.spec, window, self.ordered, placements,
                discouraged=ledger.peak_cells(),
            )
            try:
                repaired = GreedyMapper().map_tasks(sub, deadline=deadline)
            except SynthesisError:
                repaired = None
            if repaired is not None:
                for task in window:
                    placement = repaired.placements[task.name]
                    placements[task.name] = placement
                    ledger.add(task, placement)
                measure = ledger.measure()
                if measure < best:
                    best = measure
                    stall = 0
                    stats["lns_accepted"] += 1
                    if on_improve is not None:
                        on_improve(dict(placements), best[0])
                    continue
                # Not an improvement: revert incrementally.
                for task in window:
                    ledger.remove(task, placements.pop(task.name))
            else:
                stats["lns_repair_failures"] += 1
            stall += 1
            for name, placement in saved.items():
                placements[name] = placement
            for task in window:
                ledger.add(task, saved[task.name])
        stats["lns_seconds"] = time.monotonic() - start
        stats["lns_peak"] = float(best[0])
        return stats
