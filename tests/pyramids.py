"""Literal pyramid definitions and even-grid enumeration for the tests.

A pyramid ``PyramidSpec(apex, coord, sign)`` is the set

    { y : sign * (y[coord] - apex[coord]) == linf_dist(y, apex) },

i.e. the points whose largest coordinate-wise deviation from the apex is
attained at ``coord`` with direction ``sign``.  These plain-Python forms are
the references the vectorised library kernels are checked against.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple, Sequence


class PyramidSpec(NamedTuple):
    """One axis-aligned l-infinity pyramid."""

    apex: Sequence[float]
    coord: int
    sign: int


def in_pyramid(y: Sequence[float], p: PyramidSpec) -> bool:
    """Whether ``y`` lies in the pyramid ``p``.

    Uses exact comparison: the deviation at ``p.coord`` must equal the
    maximum deviation and point in direction ``p.sign``.
    """
    if p.sign not in (-1, 1):
        raise ValueError(f"pyramid sign must be +1 or -1, got {p.sign}")
    if not 0 <= p.coord < len(p.apex):
        raise ValueError(f"pyramid coordinate {p.coord} out of range")
    diffs = [yi - ai for yi, ai in zip(y, p.apex)]
    return p.sign * diffs[p.coord] == max(abs(d) for d in diffs)


def enumerate_even(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Stream the all-even grid points of ``{0, 2, ..., n}**k`` in lexicographic order."""
    if n < 0:
        raise ValueError(f"grid side must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"dimension must be at least 1, got {k}")
    return product(range(0, n + 1, 2), repeat=k)
