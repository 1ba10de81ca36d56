"""The compiled output-row kernel of the any-k loops.

ANYK-PART and ANYK-REC carry prefix weights, walked buckets and composed
entries themselves (:mod:`repro.anyk.part`, :mod:`repro.anyk.rec`), so the
one T-DP accessor they still call per *emitted* answer is
:meth:`~repro.anyk.tdp.TDP.solution_row` — an interpreted double loop over
the stage list and the per-stage writer table.  For a fixed query shape
that table is constant, so this module generates, per **shape signature**
``(number of output variables, writers)``, the straight-line source of the
row — e.g. ``r0 = rows0[choices[0]]; ...; return (r0[0], r0[1], r1[1])``
— and ``exec``-compiles it once into a :class:`KernelTemplate` (the
measured pair against the interpreted writer loop is in README, "Storage
& compiled kernels").
Templates are cached process-wide in an LRU keyed on the signature, and a
:class:`KernelSlot` stored inside the server's cached plan pins the
template alongside the routing so a warm statement skips planning *and*
kernel setup.  Binding a template to a concrete :class:`TDP` closes it
over the stages' *row lists* — not over the T-DP, which would be a
``tdp -> closure -> tdp`` cycle keeping a closed cursor's program alive
until the next full collection — and installs the closure as an
*instance attribute*, shadowing the interpreted method for that TDP only.

Correctness contract: the compiled row reads the same cells in the same
output order as the interpreted method, for every ranking (the source
does not depend on it), so compiled streams are byte-identical to
interpreted ones (pinned by the differential suite).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.anyk.tdp import TDP
from repro.util.lru import LruCache

#: Process-wide template cache: shape signature -> KernelTemplate.
#: Shapes are tiny (a few hundred bytes of source each); 256 distinct
#: live query shapes is far beyond any serving workload.
_TEMPLATES = LruCache(maxsize=256)

_EVENTS = (
    "installs",
    "compiles",
    "template_hits",
    "template_misses",
    "slot_hits",
)

_stats: dict[str, dict[str, int]] = {}
_stats_lock = threading.Lock()


def _bump(engine: str, event: str) -> None:
    with _stats_lock:
        counts = _stats.get(engine)
        if counts is None:
            counts = {name: 0 for name in _EVENTS}
            _stats[engine] = counts
        counts[event] += 1


def kernel_stats() -> dict[str, dict[str, int]]:
    """Per-engine kernel counters (installs, template hits/misses,
    slot hits, compiles)."""
    with _stats_lock:
        return {engine: dict(counts) for engine, counts in _stats.items()}


def reset_kernel_stats() -> None:
    """Zero the per-engine counters (tests and benchmarks)."""
    with _stats_lock:
        _stats.clear()


def kernel_cache_info() -> dict:
    """The template cache's size and hit/miss counts."""
    return _TEMPLATES.info()


def clear_kernel_cache() -> None:
    """Drop every compiled template (tests)."""
    _TEMPLATES.clear()


# ----------------------------------------------------------------------
# Shape signature and source generation
# ----------------------------------------------------------------------
def kernel_signature(tdp: TDP) -> tuple:
    """The shape key a compiled template is valid for: the number of
    output variables and, per stage, the ``(schema position, output
    position)`` writers — everything the generated source depends on."""
    return (
        len(tdp.query.variables),
        tuple(tuple(stage_writers) for stage_writers in tdp._writers),
    )


def generate_source(signature: tuple) -> str:
    """Python source for one shape's ``_bind`` factory.

    ``_bind(rows)`` takes the per-stage row lists and returns the
    ``solution_row(choices)`` closure over them.
    """
    num_out, writers = signature
    lines = ["def _bind(rows):"]
    lines += [
        f"    rows{position} = rows[{position}]"
        for position, stage_writers in enumerate(writers)
        if stage_writers
    ]
    lines.append("    def solution_row(choices):")
    cells: list[tuple[int, str]] = []
    for position, stage_writers in enumerate(writers):
        if stage_writers:
            lines.append(f"        r{position} = rows{position}[choices[{position}]]")
        for schema_position, out_position in stage_writers:
            cells.append((out_position, f"r{position}[{schema_position}]"))
    row = ", ".join(expr for _, expr in sorted(cells))
    if num_out == 1:
        row += ","
    lines += [f"        return ({row})", "    return solution_row", ""]
    return "\n".join(lines)


@dataclass
class KernelTemplate:
    """One compiled shape: its signature, source, and bind factory."""

    signature: tuple
    source: str
    factory: Callable

    def bind(self, tdp: TDP) -> Callable[[list[int]], tuple]:
        """``solution_row`` over one TDP's row lists (not over the TDP)."""
        return self.factory([stage.relation.rows for stage in tdp.stages])


@dataclass
class KernelSlot:
    """The per-plan kernel pin, stored on ``Plan.kernel_slot``.

    A cached plan's slot survives re-binds (the service's soft-hit path
    copies the plan dataclass, sharing this field by reference), so the
    first execution warms it and every later execution of the same
    template skips even the global template-cache lookup.
    """

    template: Optional[KernelTemplate] = None
    #: How often this slot supplied its template (the per-plan warm count).
    hits: int = field(default=0)


def compile_template(signature: tuple) -> KernelTemplate:
    """Generate + ``exec``-compile the shape's source into a template."""
    source = generate_source(signature)
    namespace: dict[str, Any] = {}
    label = f"<anyk-kernel-{abs(hash(signature)) % 16**8:08x}>"
    exec(compile(source, label, "exec"), namespace)  # noqa: S102
    return KernelTemplate(signature=signature, source=source, factory=namespace["_bind"])


def install_kernels(
    tdp: TDP,
    slot: Optional[KernelSlot] = None,
    engine: str = "anyk",
) -> None:
    """Shadow ``tdp.solution_row`` with the shape's compiled closure.

    ``slot`` pins the template on a cached plan; ``engine`` labels the
    per-engine counters.
    """
    signature = kernel_signature(tdp)
    template: Optional[KernelTemplate] = None
    if slot is not None and slot.template is not None:
        if slot.template.signature == signature:
            template = slot.template
            slot.hits += 1
            _bump(engine, "slot_hits")
    if template is None:
        template = _TEMPLATES.get(signature)
        if template is None:
            _bump(engine, "template_misses")
            _bump(engine, "compiles")
            template = compile_template(signature)
            _TEMPLATES.put(signature, template)
        else:
            _bump(engine, "template_hits")
        if slot is not None:
            slot.template = template
    tdp.solution_row = template.bind(tdp)  # type: ignore[method-assign]
    _bump(engine, "installs")
