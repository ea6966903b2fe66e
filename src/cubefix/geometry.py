"""Grid geometry: the even grid, l-infinity pyramids, and sign vectors.

Everything here is exact.  Scalar predicates use plain Python arithmetic so
integer inputs never pass through floating point; the array helpers produce
integer numpy arrays for the vectorised kernels in :mod:`cubefix.balanced`.

Conventions: points are tuples (or 1-d arrays) of length ``k``; coordinates
are indexed from 0; the pyramid ``P_i(apex, sign)`` is the set

    { y : sign * (y[i] - apex[i]) == linf_dist(y, apex) },

i.e. the points whose largest coordinate-wise deviation from the apex is
attained at ``i`` with direction ``sign``.  The apex itself lies in every
pyramid.  The even grid is stored as ``k`` columns in :func:`grid_dtype`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

GridPoint = tuple[int, ...]
RealPoint = tuple[float, ...]
SignVector = tuple[int, ...]


def linf_dist(x: Sequence[float], y: Sequence[float]) -> float:
    """l-infinity distance; exact on integer inputs."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return max(abs(a - b) for a, b in zip(x, y))


def in_pyramid_union(y: Sequence[float], apex: Sequence[float], s: Sequence[int]) -> bool:
    """Whether ``y`` lies in the union of pyramids P_i(apex, s_i) over i with s_i != 0.

    Straight from the definition; the fast kernels live in :mod:`cubefix.balanced`.
    """
    diffs = [yi - ai for yi, ai in zip(y, apex)]
    m = max(abs(d) for d in diffs)
    return any(si * d == m for si, d in zip(s, diffs) if si != 0)


def even_count(n: int, k: int) -> int:
    """Number of points in EVEN(n, k), i.e. ``(n // 2 + 1) ** k``."""
    _check_nk(n, k)
    return (n // 2 + 1) ** k


def grid_dtype(n: int) -> type:
    """Column dtype of the grid ``[0, n]^k``: the narrowest of int16, int32 and int64 holding
    ``2n + 4``, which bounds ``x_i``, ``x_i - b_i`` for an apex ``b`` in ``[-2, n + 2]^k``,
    ``x_1 +- x_2`` and ``x_i - q_i`` for ``q`` in ``[0, n]^k``."""
    span = 2 * n + 4
    return np.int16 if span <= 2 ** 15 - 1 else np.int32 if span <= 2 ** 31 - 1 else np.int64


def grid_columns(cols: Sequence[Sequence[int]], n: int) -> list[np.ndarray]:
    """Points from outside the solver as a new copy: ``k`` read-only columns in :func:`grid_dtype`,
    rows sorted lexicographically (``x_1`` first).

    Raises ``ValueError`` unless the columns are 1-d integer arrays of one length whose
    values are all even and in ``[0, n]``.  The check runs in each column's own dtype,
    before narrowing, so a value that would wrap into range (65538 is 2 in int16) is refused.
    """
    cols = [np.asarray(c) for c in cols]
    if not cols or any(c.ndim != 1 for c in cols) or len({len(c) for c in cols}) > 1:
        raise ValueError("candidate columns must be one or more 1-d arrays of equal length")
    for c in cols:
        if len(c) and (c.dtype.kind not in "iu" or c.min() < 0 or int(c.max()) > n
                       or np.bitwise_or.reduce(c) & 1):
            raise ValueError(f"candidate points must be all-even integer points of [0, {n}]^k")
    cols = [np.asarray(c, dtype=grid_dtype(n)) for c in cols]
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    for c in cols:
        c.flags.writeable = False  # solver sets may be views of each other
    return cols


def even_grid(n: int, k: int) -> list[np.ndarray]:
    """All of EVEN(n, k) as ``k`` read-only columns in :func:`grid_dtype`, rows in lex order.

    Built by ``repeat``/``tile`` in that dtype.  Callers are responsible for
    size checks; the candidate cap lives in :class:`cubefix.solver.CandidateSet`.
    At k = 1 the column of the last ``n`` is returned again (:func:`_even_column`): a k = 1
    solve reads O(log m) of its entries, and a large column built and freed by every solve
    left holes in the heap that grew peak RSS with the number of solves run.
    """
    _check_nk(n, k)
    if k == 1:
        return [_even_column(n)]
    vals = np.arange(0, n + 1, 2, dtype=grid_dtype(n))
    h = len(vals)
    cols = []
    for i in range(k):
        c = vals if i == k - 1 else np.repeat(vals, h ** (k - 1 - i))
        cols.append(c if i == 0 else np.tile(c, h ** i))
    for c in cols:
        c.flags.writeable = False  # solver sets may be views of each other
    return cols


@lru_cache(maxsize=1)
def _even_column(n: int) -> np.ndarray:
    """EVEN(n, 1) as one read-only column, kept until a column for another ``n`` is built."""
    col = np.arange(0, n + 1, 2, dtype=grid_dtype(n))
    col.flags.writeable = False
    return col


def around_contains(center: Sequence[float], y: Sequence[float], n: int | None = None) -> bool:
    """Whether ``y`` lies in Around(center): the closed unit l-infinity ball.

    When ``n`` is given, additionally requires ``y`` to lie in the cube
    ``[0, n]**k`` (the Around neighbourhood is always taken inside the cube).
    """
    if linf_dist(center, y) > 1:
        return False
    if n is not None and not all(0 <= yi <= n for yi in y):
        return False
    return True


def even_points_near(center: Sequence[float], n: int, k: int) -> np.ndarray:
    """All points of ``Around(center) ∩ EVEN(n, k)`` as an ``(m, k)`` int64 array.

    Enumerates the at-most-2-per-axis even values within distance 1 of each
    coordinate, so the cost is O(2**k), independent of ``n``.
    """
    _check_nk(n, k)
    if len(center) != k:
        raise ValueError(f"center has dimension {len(center)}, expected {k}")
    axes = []
    for ci in center:
        lo = int(np.ceil(ci - 1.0))
        hi = int(np.floor(ci + 1.0))
        vals = [v for v in range(lo, hi + 1) if v % 2 == 0 and 0 <= v <= n]
        axes.append(vals)
    pts = [p for p in product(*axes)]
    return np.array(pts, dtype=np.int64).reshape(len(pts), k)


def sign_vector(a: Sequence[float], ga: Sequence[float]) -> SignVector:
    """Coordinate-wise exact sign of ``ga - a``: ``+1``, ``-1`` or ``0`` on a tie."""
    if len(a) != len(ga):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(ga)}")
    out = []
    for ai, gi in zip(a, ga):
        d = gi - ai
        if d == 0:
            out.append(0)
        elif d > 0:
            out.append(1)
        else:
            out.append(-1)
    return tuple(out)


def _check_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"grid side must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"dimension must be at least 1, got {k}")
