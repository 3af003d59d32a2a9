"""Per-round regret ledgers and their CSV surface.

A trace stores one online run as columns: the set played each round, the
cost or payoff it incurred, and any algorithm-specific float columns.
Round t is entry t - 1 of every column, so the round index is implicit.
On construction the trace checks that every column has one entry per
round and computes the exact running sum of its values, once.

A played set is an int bitmask, the one action type from a learner's
``play`` to the CSV cell: bit i set means item or vertex i is in the set.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from math import inf, isfinite
from typing import Mapping

__all__ = ["RegretTrace", "checked_index", "checked_int", "checked_mask", "checked_real", "format_action",
           "mask_members", "running_sums", "trace_csv_blocks", "trace_to_csv"]


def running_sums(values) -> tuple[float, ...]:
    """Prefix sums added left to right from 0.0, so a leading -0.0 sums to 0.0."""
    return tuple(accumulate(values, initial=0.0))[1:]


def checked_int(x, what: str) -> int:
    """x as an int; a bool or a non-integer is refused with the ValueError
    "<what> must be an integer, got <x!r>". An integer numpy scalar passes,
    through operator.index. The one index rule is this and the two below."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def checked_index(x, n: int, what: str) -> int:
    """checked_int(x, what), refused with the ValueError "<what> must be in
    [0, <n>), got <x>" unless 0 <= x < n."""
    i = checked_int(x, what)
    if 0 <= i < n:
        return i
    raise ValueError(f"{what} must be in [0, {n}), got {i}")


def checked_mask(A, n: int, what: str) -> int:
    """The int mask of the indices in A, each checked by checked_index as
    "<what> member". A that is not iterable is refused with the ValueError
    "<what> must be an iterable of indices, got <A!r>"."""
    try:
        members = iter(A)
    except TypeError:
        raise ValueError(f"{what} must be an iterable of indices, got {A!r}") from None
    mask = 0
    for i in members:
        if type(i) is not int or not 0 <= i < n:  # a plain in-range int needs no more
            i = checked_index(i, n, f"{what} member")
        mask |= 1 << i
    return mask


def checked_real(x, what: str, low: float = -inf, high: float = inf, *,
                 open_low: bool = False, open_high: bool = False) -> float:
    """x as a Python float, refused with the ValueError "<what> must be a
    finite number in <interval>, got <x>" unless it is a finite real in
    [low, high] (open at low or high when asked; an infinite end is always
    open). A bool, a numpy bool, a str, None or an int too large for a
    float is no real. The one number rule is this; a check that relates
    two values (low <= high, A < B) follows each value's own."""
    if type(x) is not float and isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            x = float(x)
        except OverflowError:
            pass
    if (type(x) is float and isfinite(x) and (low < x if open_low else low <= x)
            and (x < high if open_high else x <= high)):
        return x
    left = "(" if open_low or low == -inf else "["
    right = ")" if open_high or high == inf else "]"
    low, high = (str(end).removesuffix(".0") for end in (low, high))  # 0 for 0.0
    raise ValueError(f"{what} must be a finite number in {left}{low}, {high}{right}, got {x!r}")


def mask_members(mask: int) -> list[int]:
    """The indices of the set bits of a nonnegative int, ascending."""
    members = []
    while mask:
        low = mask & -mask  # the lowest set bit
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


# masks of at most this many bits are formatted through _byte_cells: its
# tables, about 17 KB per byte offset, are kept for the life of the process
_TABLE_BITS = 512


@cache
def _byte_cells(k: int) -> tuple[str, ...]:
    """For byte offset k of a mask, the CSV piece of each byte value b:
    the members 8k..8k+7 that b holds, ascending, joined by ';'."""
    return tuple(";".join(str(8 * k + i) for i in range(8) if b >> i & 1) for b in range(256))


def format_action(mask: int) -> str:
    """The CSV cell of a played set, a nonnegative int mask: its members,
    ascending, joined by ';'. A mask of up to _TABLE_BITS bits is read a
    byte at a time, and each nonzero byte's piece comes from its offset's
    table (_byte_cells); a wider one is read a member at a time."""
    if mask.bit_length() > _TABLE_BITS:
        return ";".join(map(str, mask_members(mask)))
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return ";".join([_byte_cells(k)[b] for k, b in enumerate(data) if b])


@dataclass(frozen=True)
class RegretTrace:
    """Full run record as columns, plus the hindsight benchmark and run
    metadata.

    ``algorithm`` identifies the objective direction ("ogd_vc" and
    "gap_solver" minimize cost, "gftpl_gkp" maximizes payoff) and picks
    the CSV column layout. ``masks`` holds each round's played set as an
    int bitmask and ``values`` its cost-or-payoff; ``extras`` maps each
    further column's name to a tuple of floats. ``cumulatives`` is
    derived: the running sum of ``values``. ``actions`` is derived on
    first read: the played sets as frozensets of indices. ``benchmark`` is
    the best static action's total in hindsight, when the run computed one.
    A mask that is not a nonnegative int (a bool is not one) is refused
    with a ValueError naming its round.
    """

    algorithm: str
    masks: tuple[int, ...]
    values: tuple[float, ...]
    extras: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    benchmark: float | None = None
    meta: Mapping[str, object] = field(default_factory=dict)
    cumulatives: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm not in _LAYOUTS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {tuple(_LAYOUTS)}")
        masks = tuple(self.masks)
        if masks and (set(map(type, masks)) != {int} or min(masks) < 0):
            t, mask = next((t, m) for t, m in enumerate(masks, 1) if type(m) is not int or m < 0)
            raise ValueError(f"round {t}: a played set must be a nonnegative int mask, got {mask!r}")
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "extras", {k: tuple(v) for k, v in self.extras.items()})
        for name, col in (("values", self.values), *self.extras.items()):
            if len(col) != self.T:
                raise ValueError(f"column {name!r} has {len(col)} entries for {self.T} rounds")
        object.__setattr__(self, "cumulatives", running_sums(self.values))

    @cached_property
    def actions(self) -> tuple[frozenset, ...]:
        sets = {mask: frozenset(mask_members(mask)) for mask in set(self.masks)}
        return tuple(map(sets.__getitem__, self.masks))

    @property
    def T(self) -> int:
        return len(self.masks)

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
# trace_csv_blocks formats this many rows at a time
_CSV_BLOCK_ROWS = 512


def trace_csv_blocks(trace: RegretTrace):
    """The CSV text of a trace in its algorithm's layout (LF line endings,
    none after the last row), as the header and then one string per block
    of _CSV_BLOCK_ROWS rows, each row with its leading newline. Each
    distinct played set is formatted once per trace and each float as
    repr(float(x)); only one block's cells are held at a time."""
    layout = _LAYOUTS[trace.algorithm]
    cells = {mask: format_action(mask) for mask in set(trace.masks)}
    float_columns = [getattr(trace, key) if key in ("values", "cumulatives") else trace.extras[key]
                     for _, key in layout]
    yield ",".join(["t", "played_set", *(name for name, _ in layout)])
    for lo in range(0, trace.T, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, trace.T)
        columns = [map(str, range(lo + 1, hi + 1)), map(cells.__getitem__, trace.masks[lo:hi])]
        columns += [map(repr, map(float, col[lo:hi])) for col in float_columns]
        yield "\n" + "\n".join(map(",".join, zip(*columns)))


def trace_to_csv(trace: RegretTrace) -> str:
    """The whole CSV text of a trace: its trace_csv_blocks joined. A caller
    that writes a file should write the blocks instead."""
    return "".join(trace_csv_blocks(trace))
