"""Balanced points of finite grid sets: exact tests and exact/heuristic search.

A point ``q`` in ``[0, n]^k`` (integer, not necessarily even) is *balanced*
for a finite set ``T`` when for every full sign vector ``s`` in ``{-1, +1}^k``
the pyramid union ``U_i P_i(q, s_i)`` contains at least half of ``T``.  The
workhorse identity, for full sign vectors,

    x in U_i P_i(q, s_i)   <=>   max(s * (x - q)) + min(s * (x - q)) >= 0,

turns membership counting into two running extrema over coordinates, so
coverage counts are exact integer computations over (short) int columns.
Since ``min(s * d) = -max(-s * d)``, the test reads ``M(s) >= M(-s)`` with
``M(s) = max(s * (x - q))``: one pass scores both ``s`` and ``-s``, so
``coverage_counts`` scores the whole sign table in ``2**(k-1)`` passes.
Thresholds compare ``2 * count >= |T|`` in integers; no rationals, no floats.
The searches read a set as ``k`` columns in the grid's dtype: a solver
``CandidateSet`` lends its own as they are, and a plain point array is
checked and narrowed once by :func:`~cubefix.geometry.grid_columns`.
``is_balanced`` scores int64 columns, so its query point may lie anywhere.

Three search routines:

* ``find_balanced_point``: the exact lexicographic minimum.  Closed form via
  weak-median intervals for k <= 2 (coverage for full signs depends only on
  the diagonal projections ``x_1 + x_2`` and ``x_1 - x_2``); depth-first
  branch-and-bound with sound corner bounds for k >= 3.  Exponential worst
  case in higher dimension — fine at calibration scale, not for solver loops.
* ``select_query_point``: what the solver calls.  Deterministic multi-start
  descent on the integer coverage deficit, with exact verification of the
  result and a fall back to the exact search if every start stalls.  A memo
  scores each point at most once per call, since the walk often steps back
  to a point it has already scored.  Any verified balanced point preserves
  every downstream guarantee (halving, containment, query bound);
  determinism keeps runs reproducible.
* ``is_balanced``: the exact test, usable on its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import InternalInvariantError
from .geometry import GridPoint, grid_columns

_DESCENT_BUDGET = 10_000
_BLOCK_ROWS = 1 << 16  # 128 KiB per int16 block temporary: a pass stays in L2


@lru_cache(maxsize=None)
def all_sign_vectors(k: int) -> np.ndarray:
    """All ``2**k`` full sign vectors, lexicographic (-1 first): one read-only table per k."""
    table = np.array(list(product((-1, 1), repeat=k)), dtype=np.int64)
    table.flags.writeable = False
    return table


def _point_columns(T) -> list[np.ndarray]:
    """Columns of a point array in its own dtype, or of a set's ``points``; 1-d input is k = 1."""
    pts = np.asarray(getattr(T, "points", T))
    return list(pts.reshape(-1, 1).T if pts.ndim == 1 else pts.T)


def _grid_columns(T, n: int, k: int) -> list[np.ndarray]:
    """Columns of ``T``, a non-empty all-even subset of ``[0, n]^k``, in ``grid_dtype(n)``: a
    candidate set on that grid lends its own; other input goes through ``grid_columns``."""
    cols = T.cols if getattr(T, "n", None) == n else grid_columns(_point_columns(T), n)
    if len(cols) != k:
        raise ValueError(f"points have dimension {len(cols)}, expected {k}")
    if len(cols[0]) == 0:
        raise ValueError("cannot search an empty candidate set")
    return cols


def coverage_counts(cols: Sequence[np.ndarray], q: Sequence[int], signs: np.ndarray) -> np.ndarray:
    """For each full sign vector, how many column points its pyramid union at ``q`` covers.

    ``signs`` must be the :func:`all_sign_vectors` table of the columns'
    dimension; any other table raises ``ValueError``.  With ``d_i = x_i - q_i``
    and ``M(s) = max_i s_i * d_i``, sign ``s`` covers a point iff
    ``max_i s_i d_i + min_i s_i d_i >= 0``, that is iff ``M(s) >= M(-s)``.
    Negating ``s`` swaps the two sides, so one pass per ``s_0 = +1`` vector
    scores the pair: ``cov(s) = #{M(s) >= M(-s)}`` and
    ``cov(-s) = #{M(s) <= M(-s)}``.  Exact integer arithmetic in the column
    dtype, which must hold every ``|x_i - q_i|`` (``grid_dtype(n)`` does for
    ``q`` in ``[0, n]^k``), over blocks of ``_BLOCK_ROWS`` rows so that a
    pass's temporaries stay in cache.
    """
    k, m = len(cols), len(cols[0])
    table = all_sign_vectors(k)
    if not np.array_equal(signs, table):
        raise ValueError(f"coverage_counts needs the full all_sign_vectors({k}) table")
    half = len(table) // 2
    pos = (table[half:] > 0).tolist()
    qs = [int(v) for v in q]
    out = np.zeros(len(table), dtype=np.int64)
    w = min(m, _BLOCK_ROWS)
    up, down = np.empty(w, cols[0].dtype), np.empty(w, cols[0].dtype)
    flag = np.empty(w, dtype=bool)
    for lo in range(0, m, _BLOCK_ROWS):
        d = [c[lo:lo + _BLOCK_ROWS] - v for c, v in zip(cols, qs)]
        terms = [(-di, di) for di in d]  # indexed by s_i > 0
        r = len(d[0])
        a, b, f = up[:r], down[:r], flag[:r]
        for j, p in enumerate(pos, start=half):
            _max_into(a, [t[pi] for t, pi in zip(terms, p)])
            _max_into(b, [t[1 - pi] for t, pi in zip(terms, p)])
            out[j] += np.count_nonzero(np.greater_equal(a, b, out=f))
            out[-1 - j] += np.count_nonzero(np.less_equal(a, b, out=f))
    return out


def _max_into(buf: np.ndarray, arrays: list[np.ndarray]) -> None:
    """Elementwise maximum of ``arrays`` (one or more), written into ``buf``."""
    np.maximum(arrays[0], arrays[-1], out=buf)
    for x in arrays[1:-1]:
        np.maximum(buf, x, out=buf)


def is_balanced(q: Sequence[int], T) -> bool:
    """Exact balancedness test of ``q`` against ``T`` (a CandidateSet or point array).

    Scores int64 columns, so ``q`` may lie anywhere.  An empty ``T`` makes
    every point vacuously balanced.  Examples on the k = 1 set
    {0, 2, 4, 6, 8}: q = 4 is balanced, q = 0 is not (only one of five points
    lies in the downward pyramid); a singleton's own point is balanced.
    """
    cols = [c.astype(np.int64) for c in _point_columns(T)]
    m = len(cols[0])
    if m == 0:
        return True
    k = len(cols)
    if len(q) != k:
        raise ValueError(f"query point has dimension {len(q)}, expected {k}")
    cov = coverage_counts(cols, q, all_sign_vectors(k))
    return bool(np.all(2 * cov >= m))


def _median_interval(vals: np.ndarray) -> tuple[int, int]:
    """Closed integer interval of weak medians: counts on both sides >= half."""
    m = len(vals)
    c = (m + 1) // 2
    lo, hi = np.partition(vals, (c - 1, m - c))[[c - 1, m - c]]
    return int(lo), int(hi)


def _k2_point(u_lo: int, u_hi: int, v_lo: int, v_hi: int, n: int) -> GridPoint | None:
    """Lexicographically smallest ``q`` in ``[0, n]^2`` with ``q1 + q2`` in ``[u_lo, u_hi]``
    and ``q1 - q2`` in ``[v_lo, v_hi]``, or None.  The ``q1`` admitting some
    ``max(u_lo - q1, q1 - v_hi, 0) <= q2 <= min(u_hi - q1, q1 - v_lo, n)`` form one interval.
    """
    q1 = max(0, -(-(u_lo + v_lo) // 2), u_lo - n, v_lo)
    if q1 > min(n, (u_hi + v_hi) // 2, v_hi + n, u_hi):
        return None
    return (q1, max(u_lo - q1, q1 - v_hi, 0))


class _BranchBound:
    """Exact lexicographic-minimum search by corner-bounded box splitting.

    Coverage for sign ``s`` over a box ``[lo, hi]`` is maximised at the corner
    taking ``lo_i`` where ``s_i > 0`` and ``hi_i`` otherwise (moving ``q``
    against ``s`` only grows every accumulated term), so a box where some
    sign's best corner still covers less than half of ``T`` contains no
    balanced point.  Signs are tested one at a time with the max + min
    identity, stopping at the first that fails.  Splitting the first
    unresolved coordinate, lower half first, visits surviving leaves in
    lexicographic order.
    """

    def __init__(self, pts: np.ndarray, n: int, k: int):
        self.pts = pts
        self.m = len(pts)
        self.k = k
        self.signs = all_sign_vectors(k)
        self.n = n

    def _box_feasible(self, lo: np.ndarray, hi: np.ndarray) -> bool:
        for s in self.signs:
            sd = s * (self.pts - np.where(s > 0, lo, hi))
            if 2 * np.count_nonzero(sd.max(axis=1) + sd.min(axis=1) >= 0) < self.m:
                return False
        return True

    def search(self) -> GridPoint | None:
        lo = np.zeros(self.k, dtype=np.int64)
        hi = np.full(self.k, self.n, dtype=np.int64)
        stack = [(lo, hi)]
        while stack:
            lo, hi = stack.pop()
            if not self._box_feasible(lo, hi):
                continue
            split = next((i for i in range(self.k) if lo[i] < hi[i]), -1)
            if split < 0:
                return tuple(int(v) for v in lo)
            mid = (int(lo[split]) + int(hi[split])) // 2
            hi1 = hi.copy(); hi1[split] = mid
            lo2 = lo.copy(); lo2[split] = mid + 1
            stack.append((lo2, hi))
            stack.append((lo, hi1))
        return None


def find_balanced_point(T, n: int, k: int) -> GridPoint:
    """Lexicographically smallest balanced point of ``T`` in ``[0, n]^k``.

    ``T`` must be a non-empty subset of the all-even grid.  A balanced point
    always exists for such sets; if the search comes up empty that guarantee
    is broken and :class:`InternalInvariantError` is raised.
    """
    cols = _grid_columns(T, n, k)
    if k == 1:
        q = (_median_interval(cols[0])[0],)
    elif k == 2:
        q = _k2_point(*_median_interval(cols[0] + cols[1]),
                      *_median_interval(cols[0] - cols[1]), n)
    else:
        q = _BranchBound(np.stack(cols, axis=1).astype(np.int64), n, k).search()
    if q is None:
        raise InternalInvariantError(
            f"no balanced point exists for a {len(cols[0])}-point even set in [0, {n}]^{k}")
    return q


def _unit_directions(k: int) -> list[np.ndarray]:
    if k <= 6:
        return [np.array(d, dtype=np.int64) for d in product((-1, 0, 1), repeat=k) if any(d)]
    dirs = []
    for i in range(k):
        for v in (-1, 1):
            d = np.zeros(k, dtype=np.int64)
            d[i] = v
            dirs.append(d)
    return dirs


def _descend(cols, q: np.ndarray, n: int, signs: np.ndarray, m: int,
             dirs: list[np.ndarray], budget: int, memo: dict) -> np.ndarray | None:
    """First-improvement descent on the deficit ``sum_s max(0, m - 2 cov_s)`` from one start.

    Step sizes sweep a halving schedule from ~n/2 down to 1; candidate moves
    are the aggregate direction of the failing signs, each failing sign
    reversed, then all unit directions — a fixed order, so the walk is a pure
    function of the inputs.  ``memo`` maps each point already scored to its
    ``(deficit, coverage)``, so a point is scored once per select, however
    often the walk returns to it (mostly by reversing the last accepted
    move); a memo hit still counts as an evaluation against ``budget``.
    Returns a balanced point or None on a stall.
    """
    def score(p: np.ndarray) -> tuple[int, np.ndarray]:
        key = tuple(int(v) for v in p)
        if key not in memo:
            cov = coverage_counts(cols, p, signs)
            memo[key] = int(np.maximum(0, m - 2 * cov).sum()), cov
        return memo[key]

    deficit, cov = score(q)
    evals = 1
    if deficit == 0:
        return q
    step = 1 << max(0, int(n).bit_length() - 2)
    while step >= 1:
        improved = True
        while improved and evals < budget:
            improved = False
            failing = 2 * cov < m
            agg = -(signs[failing].sum(axis=0))
            moves: list[np.ndarray] = []
            if np.any(agg != 0):
                moves.append(np.sign(agg).astype(np.int64))
            moves.extend(-s for s in signs[failing])
            moves.extend(dirs)
            for dvec in moves:
                q2 = np.clip(q + step * dvec, 0, n)
                d2, cov2 = score(q2)
                evals += 1
                if d2 < deficit:
                    q, deficit, cov = q2, d2, cov2
                    improved = True
                    if deficit == 0:
                        return q
                    break
        step //= 2
    return None


def select_query_point(T, n: int, k: int) -> GridPoint:
    """A balanced point of ``T``, chosen deterministically and verified exactly.

    k <= 2 uses the closed-form lexicographic minimum.  k >= 3 runs the
    deficit descent from five deterministic starts (low/high weak medians,
    bounding-box middle, grid centre, median midpoint) and falls back to the
    exact branch-and-bound if all stall.  The starts share one memo of scored
    points.  The result is always exactly balanced; only which balanced
    point gets returned varies by path.
    """
    if k <= 2:
        return find_balanced_point(T, n, k)
    cols = _grid_columns(T, n, k)
    m = len(cols[0])
    signs = all_sign_vectors(k)
    dirs = _unit_directions(k)
    lo_med, hi_med = np.array([_median_interval(col) for col in cols], dtype=np.int64).T
    mid = np.array([(int(col.min()) + int(col.max())) // 2 for col in cols], dtype=np.int64)
    centre = np.full(k, n // 2, dtype=np.int64)
    starts = [lo_med, hi_med, mid, centre, (lo_med + hi_med) // 2]
    memo: dict = {}
    for start in starts:
        q0 = np.clip(start.astype(np.int64), 0, n)
        q = _descend(cols, q0, n, signs, m, dirs, _DESCENT_BUDGET, memo)
        if q is not None:
            return tuple(int(v) for v in q)
    return find_balanced_point(T, n, k)
