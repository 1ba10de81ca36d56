"""RAM-model operation counters.

The tutorial argues (Sections 1 and 2) that analytical results for top-k
algorithms are usually stated in terms of the number of *input tuples
accessed*, while optimal-join research uses the standard RAM model that
charges O(1) per memory access and therefore also accounts for the cost of
large intermediate results.  To compare algorithms from both areas on equal
footing, every engine in this library reports its work through a
:class:`Counters` object.

Counters are deliberately coarse: they track the quantities the tutorial
talks about (tuples read, intermediate tuples materialized, comparisons,
sorted/random accesses, heap operations) rather than literal machine
operations.  Benchmarks report these counts as their primary series because
absolute Python wall-clock is not a faithful proxy for the authors' Java
testbed; :func:`growth_exponent` fits the exponent such a series grows with.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields
from typing import Sequence


@dataclass
class Counters:
    """Mutable bundle of operation counts.

    Thread-safety contract: the hot-path idiom ``counters.heap_ops += 1``
    stays a plain attribute bump (engines are single-threaded per
    invocation and own a private instance), while every *shared* update
    path — :meth:`bump`, :meth:`add`, :meth:`merge`, :meth:`reset` — and
    the consistent readers :meth:`snapshot` / :meth:`total_work` take an
    internal lock.  Concurrent sessions (the :mod:`repro.server` regime)
    therefore count into private instances and :meth:`merge` them into a
    shared aggregate without losing updates.

    Attributes
    ----------
    tuples_read:
        Input tuples touched (each scan of an input tuple counts once).
    intermediate_tuples:
        Tuples materialized in intermediate results (the quantity binary
        join plans blow up on for cyclic queries).
    output_tuples:
        Result tuples emitted.
    comparisons:
        Key/weight comparisons performed.
    hash_probes:
        Hash table lookups.
    sorted_accesses:
        Sorted accesses in the TA middleware cost model.
    random_accesses:
        Random accesses in the TA middleware cost model.
    heap_ops:
        Priority queue pushes/pops (the any-k delay driver).
    """

    tuples_read: int = 0
    intermediate_tuples: int = 0
    output_tuples: int = 0
    comparisons: int = 0
    hash_probes: int = 0
    sorted_accesses: int = 0
    random_accesses: int = 0
    heap_ops: int = 0
    extras: dict = field(default_factory=dict)
    #: Guards every cross-thread update/read path.  ``repr=False`` keeps
    #: dataclass rendering clean; ``compare=False`` keeps equality on the
    #: counts themselves.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def reset(self) -> None:
        """Zero every counter in place (atomic)."""
        with self._lock:
            for f in fields(self):
                if f.name == "extras":
                    self.extras.clear()
                elif f.name != "_lock":
                    setattr(self, f.name, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named extra counter (created on first use, atomic)."""
        with self._lock:
            self.extras[name] = self.extras.get(name, 0) + amount

    def add(self, name: str, amount: int = 1) -> None:
        """Atomically increment a *field* counter by name.

        The thread-safe alternative to ``counters.tuples_read += 1`` for
        instances shared across threads (server-wide aggregates).
        """
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def total_accesses(self) -> int:
        """Middleware cost: sorted plus random accesses (TA model)."""
        with self._lock:
            return self.sorted_accesses + self.random_accesses

    def total_work(self) -> int:
        """A single RAM-model-ish scalar: the sum of all counted operations.

        Useful for quick comparisons in benchmarks; individual counters are
        reported alongside it so no information is lost.  Taken under the
        lock so a read racing a concurrent :meth:`merge` never sees a
        partially-merged sum.
        """
        with self._lock:
            return self._total_work_locked()

    def _total_work_locked(self) -> int:
        base = (
            self.tuples_read
            + self.intermediate_tuples
            + self.output_tuples
            + self.comparisons
            + self.hash_probes
            + self.sorted_accesses
            + self.random_accesses
            + self.heap_ops
        )
        return base + sum(self.extras.values())

    def snapshot(self) -> dict:
        """Return the counters as a plain dict (for bench reporting).

        Taken under the lock, so a snapshot racing concurrent
        :meth:`add`/:meth:`bump`/:meth:`merge` calls is internally
        consistent.
        """
        with self._lock:
            out = {
                f.name: getattr(self, f.name)
                for f in fields(self)
                if f.name not in ("extras", "_lock")
            }
            out.update(self.extras)
        out["total_work"] = sum(v for v in out.values())
        return out

    def merge(self, other: "Counters") -> "Counters":
        """Add ``other``'s counts into ``self`` and return ``self``.

        Atomic on ``self``; ``other`` must be quiescent (no concurrent
        writers) while merged — the per-session-then-aggregate pattern
        guarantees that.
        """
        with self._lock:
            for f in fields(self):
                if f.name == "extras":
                    for key, value in other.extras.items():
                        self.extras[key] = self.extras.get(key, 0) + value
                elif f.name != "_lock":
                    setattr(
                        self, f.name, getattr(self, f.name) + getattr(other, f.name)
                    )
        return self


#: Module-level counters used by engines when the caller does not supply
#: an explicit instance.  Benchmarks reset this between runs.
global_counters = Counters()


def reset_global_counters() -> Counters:
    """Reset and return the module-level :data:`global_counters`."""
    global_counters.reset()
    return global_counters


def growth_exponent(ns: Sequence[int], costs: Sequence[float]) -> float:
    """Least-squares slope of log(cost) against log(n).

    The empirical growth exponent: ~2 for quadratic series, ~1.5 for the
    WCO/submodular-width series, ~1 for linear ones.
    """
    points = [
        (math.log(n), math.log(c)) for n, c in zip(ns, costs) if c > 0 and n > 1
    ]
    if len(points) < 2:
        return float("nan")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den if den else float("nan")
