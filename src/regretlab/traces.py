"""Per-round regret ledgers and their CSV surface.

A trace stores one online run as columns: the action played each round,
the cost or payoff it incurred, and any algorithm-specific float columns.
Round t is entry t - 1 of every column, so the round index is implicit.
On construction the trace checks that every column has one entry per
round and computes the exact running sum of its values, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

__all__ = ["RegretTrace", "running_sums", "trace_to_csv"]


def running_sums(values) -> tuple[float, ...]:
    """Prefix sums added left to right from 0.0, so a leading -0.0 sums to 0.0."""
    return tuple(accumulate(values, initial=0.0))[1:]


def format_action(action) -> str:
    """Semicolon-joined rendering of a played action for CSV cells."""
    if isinstance(action, (set, frozenset)):
        return ";".join(str(i) for i in sorted(action))
    if isinstance(action, (tuple, list)):
        return ";".join(str(a) for a in action)
    return str(action)


@dataclass(frozen=True)
class RegretTrace:
    """Full run record as columns, plus the hindsight benchmark and run
    metadata.

    ``algorithm`` identifies the objective direction ("ogd_vc" and
    "gap_solver" minimize cost, "gftpl_gkp" maximizes payoff) and picks
    the CSV column layout. ``actions`` and ``values`` hold each round's
    played action and its cost-or-payoff; ``extras`` maps each further
    column's name to a tuple of floats. ``cumulatives`` is derived: the
    running sum of ``values``. ``benchmark`` is the best static action's
    total in hindsight, when the run computed one.
    """

    algorithm: str
    actions: tuple
    values: tuple[float, ...]
    extras: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    benchmark: float | None = None
    meta: Mapping[str, object] = field(default_factory=dict)
    cumulatives: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm not in _LAYOUTS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {tuple(_LAYOUTS)}")
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "extras", {k: tuple(v) for k, v in self.extras.items()})
        for name, col in (("values", self.values), *self.extras.items()):
            if len(col) != self.T:
                raise ValueError(f"column {name!r} has {len(col)} entries for {self.T} rounds")
        object.__setattr__(self, "cumulatives", running_sums(self.values))

    @property
    def T(self) -> int:
        return len(self.actions)

    @property
    def cumulative(self) -> float:
        return self.cumulatives[-1] if self.cumulatives else 0.0


# CSV layouts: each algorithm's float columns, after the leading "t" and
# "played_set", as (csv name, trace column) pairs. A trace column is
# "values", "cumulatives" or the name of an extras column.
_LAYOUTS = {
    "ogd_vc": (
        ("int_cost", "values"), ("frac_cost", "frac_cost"), ("cum_int", "cumulatives"),
        ("cum_frac", "cum_frac"), ("bound_additive", "bound_additive"),
    ),
    "gftpl_gkp": (
        ("payoff", "values"), ("cum_payoff", "cumulatives"), ("best_static_cum", "best_static_cum"),
        ("regret", "regret"), ("theorem3_bound", "theorem3_bound"),
    ),
    "gap_solver": (("cost", "values"), ("cum_cost", "cumulatives")),
}


def trace_to_csv(trace: RegretTrace) -> str:
    """Render a trace in its algorithm's CSV layout (LF line endings),
    formatting each column once and joining the rows across them."""
    layout = _LAYOUTS[trace.algorithm]
    columns = [[str(t) for t in range(1, trace.T + 1)], [format_action(a) for a in trace.actions]]
    for _, key in layout:
        floats = getattr(trace, key) if key in ("values", "cumulatives") else trace.extras[key]
        columns.append([repr(float(x)) for x in floats])
    header = ",".join(["t", "played_set", *(name for name, _ in layout)])
    return "\n".join([header, *map(",".join, zip(*columns))])
