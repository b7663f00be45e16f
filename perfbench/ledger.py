"""Wall-clock span ledger for the benchmark's traced runs.

The ledger wraps public functions of the program from outside — it
replaces a class or module attribute with a timing wrapper and restores
the original afterwards — so a traced run attributes wall time to layers
without any change to the program.  Each call records one span: name,
start, end, parent span and, where the call carries one, a request id.
Spans stay in flat arrays in memory and are written out once, when the
run ends.

Self time is a span's duration minus the time its direct children
cover.  All layers run on one thread, so children never overlap and the
subtraction is exact.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Ledger", "LayerTotals"]


class LayerTotals:
    """Per span name: call count and summed self time, split by phase."""

    def __init__(self, names: List[str], name_ids, self_s, phase) -> None:
        self.calls: Dict[Tuple[str, int], int] = {}
        self.self_s: Dict[Tuple[str, int], float] = {}
        n_names = len(names)
        for p in (Ledger.SETUP, Ledger.TIMED, Ledger.WARMUP):
            mask = phase == p
            counts = np.bincount(name_ids[mask], minlength=n_names)
            sums = np.bincount(
                name_ids[mask], weights=self_s[mask], minlength=n_names
            )
            for i, name in enumerate(names):
                self.calls[(name, p)] = int(counts[i])
                self.self_s[(name, p)] = float(sums[i])


class Ledger:
    """Records spans around wrapped calls; one instance per traced run.

    Spans belong to the phase current when they open (see :meth:`phase`):
    set-up, warm-up or the timed phase.
    """

    SETUP, TIMED, WARMUP = 0, 1, 2

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("i")
        self._phase = array("b")
        self._request: List[Optional[str]] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._current_phase = self.SETUP

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        span: str,
        request_id: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``span``.

        ``request_id(args, kwargs)``, when given, extracts the request id
        a call carries (or ``None``).
        """
        # A class's own attribute, so restoring it never shadows a base
        # class's; a module's attribute otherwise.
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        name_id = self._name_id.setdefault(span, len(self._names))
        if name_id == len(self._names):
            self._names.append(span)
        clock = time.perf_counter
        stack = self._stack
        start, end, parent = self._start, self._end, self._parent
        names, phases, requests = self._name, self._phase, self._request
        ledger = self

        def wrapper(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            phases.append(ledger._current_phase)
            requests.append(
                request_id(args, kwargs) if request_id is not None else None
            )
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def phase(self, phase: int) -> None:
        """Spans opened from now on belong to ``phase``."""
        self._current_phase = phase

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._start)

    def _arrays(self):
        # Copies, so no NumPy view pins the growable arrays.
        start = np.array(self._start, dtype=float)
        end = np.array(self._end, dtype=float)
        parent = np.array(self._parent, dtype=np.int64)
        name_ids = np.array(self._name, dtype=np.int64)
        phase = np.array(self._phase, dtype=np.int8)
        return start, end, parent, name_ids, phase

    def self_times(self) -> np.ndarray:
        """Self time of every span: duration minus direct children."""
        start, end, parent, _, _ = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        child_cover = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        return duration - child_cover

    def fold(self) -> LayerTotals:
        """Per-name call counts and self time, split by phase."""
        _, _, _, name_ids, phase = self._arrays()
        return LayerTotals(self._names, name_ids, self.self_times(), phase)

    def top_level_s(self, phase: int) -> float:
        """Summed duration of the spans of ``phase`` that have no parent."""
        start, end, parent, _, phases = self._arrays()
        top = (parent < 0) & (phases == phase)
        return float((end[top] - start[top]).sum())

    def check(self, wall_s: float) -> List[str]:
        """Consistency of the recorded spans against the traced wall time:
        no self time is negative, and the self times (which add up to
        the top-level durations) fit inside ``wall_s``."""
        problems = []
        self_s = self.self_times()
        if self_s.size and self_s.min() < -1e-9:
            problems.append(f"negative self time {self_s.min():.3e} s")
        total = float(self_s.sum())
        if total > wall_s + 1e-6:
            problems.append(
                f"self times sum to {total:.6f} s, more than the traced "
                f"wall time {wall_s:.6f} s"
            )
        return problems

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (NumPy ``.npz``)."""
        start, end, parent, name_ids, phase = self._arrays()
        requests = np.array(
            ["" if r is None else r for r in self._request], dtype=str
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self._names, dtype=str),
            name=name_ids,
            start_s=start,
            end_s=end,
            parent=parent,
            phase=phase,
            request_id=requests,
        )
