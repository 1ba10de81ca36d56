"""The repository's one benchmark: ``python3 -m bench``.

Five closed-loop workloads, seven end-to-end metrics in reference-speed
units, and a traced run that splits each request's time over the
program's layers.  ``README.md`` in this directory says why each exists;
``BENCHMARK.json`` at the repository root is the machine-readable
declaration and ``metrics.py`` its source.

The package owns its load loop, sampling and percentiles; of the program
it imports only what a user would (``repro.sql``, ``repro.server``'s
clients and protocol, the data generators) plus, for the traced run, the
public functions it puts spans around.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
SRC_DIR = PACKAGE_DIR.parent / "src"

#: sha256 of ``calibrate.py``.  That file defines the unit every number is
#: reported in; a change to it must change this pin in the same diff, so
#: the unit cannot move silently.  (The issue asked for the pin to live in
#: BENCHMARK.json, whose key set is closed; it lives here instead.)
CALIBRATE_SHA256 = (
    "a13d073ae2020079435f5a9df4b0f7a24b9c2692f6afca7ba018ddc94ca4e582"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (not a failed request)."""


def calibrate_sha256() -> str:
    return hashlib.sha256((PACKAGE_DIR / "calibrate.py").read_bytes()).hexdigest()


def check_calibrate_pin() -> None:
    """Refuse to run with a calibration kernel other than the pinned one."""
    from bench import calibrate

    actual = calibrate_sha256()
    if actual != CALIBRATE_SHA256:
        raise BenchError(
            f"bench/calibrate.py hashes to {actual}, the pin says "
            f"{CALIBRATE_SHA256}: the benchmark's unit of time was edited"
        )
    if calibrate.kernel() != calibrate.KERNEL_CHECKSUM:
        raise BenchError("the calibration kernel's checksum is off")


def ensure_repro_importable() -> None:
    """Put the checkout's ``src`` on ``sys.path`` unless ``repro`` is
    already findable.  Nothing is imported here: the imports are part of
    the set-up the runs time."""
    if importlib.util.find_spec("repro") is not None:
        return
    if not (SRC_DIR / "repro").is_dir():
        raise BenchError(
            f"no program to measure: {SRC_DIR}/repro does not exist"
        )
    sys.path.insert(0, str(SRC_DIR))
