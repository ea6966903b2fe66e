"""Balanced points of finite grid sets: exact tests and exact/heuristic search.

A point ``q`` in ``[0, n]^k`` (integer, not necessarily even) is *balanced*
for a finite set ``T`` when for every full sign vector ``s`` in ``{-1, +1}^k``
the pyramid union ``U_i P_i(q, s_i)`` contains at least half of ``T``.  The
workhorse identity, for full sign vectors,

    x in U_i P_i(q, s_i)   <=>   max(s * (x - q)) + min(s * (x - q)) >= 0,

turns membership counting into two running extrema over coordinates.  Along
a *run*, ``x_k = lo, lo + 2, ..`` under one prefix ``x_1 .. x_{k-1}``
(:func:`runs_of`), the prefix holds ``P = max_{i<k} |x_i - q_i|`` (0 at k = 1)
or ``-P`` as an extremum of ``s * (x - q)``, so with ``s`` *reaching* ``P`` when
``max_{i<k} s_i (x_i - q_i) = P`` (ties included),

    s covers x   iff   s_k (x_k - q_k) >= -P  if s reaches P,  else >= P.

So a run is counted against two thresholds, ``q_k -+ P``, whatever the sign:
:func:`coverage_counts` adds, for each prefix sign, the runs it reaches, and
the box test's ``own_sign_counts`` scores each sign at a point of its own; every count in
this module goes through one of them, as ``2 * count >= |T|`` in integers, with no floats.
The three routines below take a :class:`~cubefix.solver.CandidateSet` ``T`` and nothing else:
they read its own ``n``, ``k`` and store in the grid's dtype, columns at k <= 2 and runs at
k >= 3.  Points from outside enter through ``CandidateSet(cols, n)``, the one intake check.
``is_balanced`` casts the runs to int64 once, so its integer query point may lie anywhere.

Three routines:

* ``find_balanced_point``: the exact lexicographic minimum.  Closed form via
  weak-median intervals for k <= 2 (coverage for full signs depends only on
  the diagonal projections ``x_1 + x_2`` and ``x_1 - x_2``); depth-first
  branch-and-bound with sound corner bounds for k >= 3, one ``own_sign_counts``
  call per box, its per-set work done once per search.  Exponential worst case in
  higher dimension; on a 2-core Xeon VM, EVEN(64, 3) after one elimination (15,616
  points) takes 3,195 box tests in 0.25 s, and one box test on EVEN(256, 3) about 0.45 ms.
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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InternalInvariantError
from .geometry import GridPoint, integer_array

if TYPE_CHECKING:
    from .solver import CandidateSet

_DESCENT_BUDGET = 10_000


@lru_cache(maxsize=None)
def all_sign_vectors(k: int) -> np.ndarray:
    """All ``2**k`` full sign vectors, lexicographic (-1 first): one read-only table per k."""
    table = np.array(list(product((-1, 1), repeat=k)), dtype=np.int64)
    table.flags.writeable = False
    return table


def runs_of(cols: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The maximal runs ``x_k = lo, lo + 2, .., lo + 2(len - 1)`` of one prefix ``x_1 .. x_{k-1}``
    in consecutive rows, as ``k + 1`` columns ``[x_1 .. x_{k-1}, lo, len]`` in the columns' dtype.
    Expanding every run gives back the rows; any row order is valid, lexicographic is shortest."""
    *pre, last = cols
    brk = np.ones(len(last), dtype=bool)
    np.not_equal(last[1:], last[:-1] + 2, out=brk[1:])
    for c in pre:
        brk[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(brk)
    lens = np.diff(starts, append=len(last)).astype(last.dtype)
    return [c[starts] for c in cols] + [lens]


def coverage_counts(runs: Sequence[np.ndarray], q: Sequence, signs: np.ndarray) -> np.ndarray:
    """For each full sign vector, in sign order, how many points of ``runs`` (:func:`runs_of`)
    its pyramid union at the point ``q`` covers.

    ``signs`` must be the :func:`all_sign_vectors` table of dimension ``len(runs) - 1``; any
    other raises ``ValueError``.  By the module docstring's rule, each run is counted four
    times, at or past and at or before ``x_k = q_k -+ P``, and each prefix sign adds a bool
    mask of the runs it reaches times their differences.  Exact integers: the column dtype
    must hold ``q`` and ``2 max|x_i - q_i| + 2``, as ``grid_dtype(n)`` does for ``q`` in
    ``[0, n]^k``; products are at most a run's ``len``, sums int32 below 2**31 points, else int64.
    """
    k = len(runs) - 1
    table = all_sign_vectors(k)
    if signs is not table and not np.array_equal(signs, table):
        raise ValueError(f"coverage_counts needs the full all_sign_vectors({k}) table")
    *pre, lo, lens = runs
    q = np.asarray(q, dtype=lo.dtype)
    d = np.array(pre, dtype=lo.dtype).reshape(k - 1, len(lo)) - q[:-1, None]  # (k - 1, #runs)
    P = np.abs(d).max(axis=0, initial=0)
    reach = np.zeros((1, len(lo)), dtype=bool)  # per prefix sign: max_i s_i d_i == P
    for hit in d[:, None] == np.stack([-P, P]):
        reach = (reach[:, None] | hit).reshape(-1, len(lo))
    t = np.empty((4, len(lo)), dtype=lo.dtype)  # <= q_k - P, >= q_k - P, <= q_k + P, >= q_k + P
    np.subtract((q[-1] + 1) - lo, P, out=t[1])
    np.add(t[1], 2 * P, out=t[3])
    np.add(t[1::2], 1, out=t[::2])
    t >>= 1
    np.maximum(t, np.zeros_like(lens), out=t)  # a scalar bound is ~10x slower on int16
    np.minimum(t, lens, out=t)
    m = int(lens.sum())
    acc = np.int32 if m < 2 ** 31 else np.int64  # no count exceeds m
    fixed = np.array([0, m]) + [1, -1] * t[::3].sum(axis=1, dtype=acc)  # s_k = -1, +1, P unreached
    extra = (reach[:, None] * (t[2:] - t[:2])).sum(axis=2, dtype=acc)  # (prefix sign, s_k)
    return (extra + fixed).ravel()


def is_balanced(q: Sequence[int], T: CandidateSet) -> bool:
    """Exact balancedness test of the integer point ``q`` against ``T``.

    Scores an int64 copy of the set's runs, so ``q`` may lie anywhere.  An empty ``T`` makes
    every point vacuously balanced; a ``q`` that is not of an integer dtype raises
    ``ValueError``.  Examples on the k = 1 set {0, 2, 4, 6, 8}: q = 4 is balanced, q = 0 is
    not (only one of five points lies in the downward pyramid); a singleton's own point is
    balanced.
    """
    q = integer_array(q, "query point")
    if len(T) == 0:
        return True
    if q.shape != (T.k,):
        raise ValueError(f"query point has shape {q.shape}, expected ({T.k},)")
    runs = [c.astype(np.int64) for c in (T.runs if T.k >= 3 else runs_of(T.cols))]
    return bool(np.all(2 * coverage_counts(runs, q, all_sign_vectors(T.k)) >= len(T)))


def _median_interval(vals: np.ndarray) -> tuple[int, int]:
    """Closed integer interval of weak medians: counts on both sides >= half."""
    ranks = [(len(vals) - 1) // 2, len(vals) // 2]
    lo, hi = np.partition(vals, ranks)[ranks]
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
    balanced point.  A box test is one :meth:`own_sign_counts` call on the
    set's runs, each sign at its own best corner.  Splitting the first unresolved
    coordinate, lower half first, visits surviving leaves in lexicographic order.
    """

    def __init__(self, runs: Sequence[np.ndarray], n: int):
        *pre, lo, self.lens = runs
        self.k, self.n, self.m = len(runs) - 1, n, int(self.lens.sum())
        s = all_sign_vectors(self.k).astype(lo.dtype)
        self.best_lo, self.s_pre, self.sk = s > 0, s[:, :-1, None], s[:, -1:]
        self.pre = np.array(pre, dtype=lo.dtype).reshape(self.k - 1, len(lo))
        self.start = (3 - self.sk) // 2 - lo
        self.zero, self.base = np.zeros_like(self.lens), np.where(self.sk[:, 0] > 0, self.m, 0)

    def own_sign_counts(self, corners: np.ndarray) -> np.ndarray:
        """Entry ``j`` of :func:`coverage_counts` at ``corners[j]``, for each of the ``2**k`` rows
        of ``corners``: each sign at its own point, one threshold per run (the module docstring's
        rule), every corner in one broadcast.  Same dtype bound as there."""
        c = np.asarray(corners, dtype=self.pre.dtype)[:, :, None]
        d = self.pre - c[:, :-1]  # (2**k, k - 1, #runs)
        t = np.abs(d).max(axis=1, initial=0)  # P, negated where s reaches it
        np.negative(t, out=t, where=(self.s_pre * d).max(axis=1, initial=0) == t)
        # idx: the first x_k >= q_k + t (s_k = +1), one past the last <= q_k - t (-1)
        idx = (self.sk * t + c[:, -1] + self.start) >> 1
        np.maximum(idx, self.zero, out=idx)
        np.minimum(idx, self.lens, out=idx)
        return self.base - self.sk[:, 0] * idx.sum(axis=1)  # len - idx or idx

    def _box_feasible(self, lo: np.ndarray, hi: np.ndarray) -> bool:
        cov = self.own_sign_counts(np.where(self.best_lo, lo, hi))
        return 2 * int(cov.min()) >= self.m

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


def find_balanced_point(T: CandidateSet) -> GridPoint:
    """Lexicographically smallest balanced point of ``T`` in ``[0, T.n]^T.k``.

    ``T`` must be non-empty.  k <= 2 is closed form on ``T.cols``; k >= 3 is
    :class:`_BranchBound` on ``T.runs``.  A balanced point always exists for such sets; if
    the search comes up empty that guarantee is broken and :class:`InternalInvariantError`
    is raised.
    """
    n, k, m = T.n, T.k, len(T)
    if m == 0:
        raise ValueError("cannot search an empty candidate set")
    if k == 1:  # the column is sorted: the lower weak median is an index
        q = (int(T.cols[0][(m + 1) // 2 - 1]),)
    elif k == 2:
        x1, x2 = T.cols
        q = _k2_point(*_median_interval(x1 + x2), *_median_interval(x1 - x2), n)
    else:
        q = _BranchBound(T.runs, n).search()
    if q is None:
        raise InternalInvariantError(
            f"no balanced point exists for a {m}-point even set in [0, {n}]^{k}")
    return q


def _unit_directions(k: int) -> list[tuple[int, ...]]:
    if k <= 6:
        return [d for d in product((-1, 0, 1), repeat=k) if any(d)]
    return [tuple(v if j == i else 0 for j in range(k)) for i in range(k) for v in (-1, 1)]


def _descend(runs, q: tuple[int, ...], n: int, signs: np.ndarray, m: int,
             dirs: list[tuple[int, ...]], memo: dict) -> tuple[int, ...] | None:
    """First-improvement descent on the deficit ``sum_s max(0, m - 2 cov_s)`` from one start.

    Step sizes sweep a halving schedule from ~n/2 down to 1; candidate moves
    are the aggregate direction of the failing signs, each failing sign
    reversed, then all unit directions — a fixed order, so the walk is a pure
    function of the inputs.  ``memo`` maps each point already scored (points and
    moves are int tuples) to its ``(deficit, coverage)``, so a point is scored once
    per select, however often the walk returns to it (mostly by reversing the last
    accepted move); a memo hit still counts as an evaluation against ``_DESCENT_BUDGET``.
    Scores ``runs``, the set's own; returns a balanced point or None on a stall.
    """
    def score(p: tuple[int, ...]) -> tuple[int, np.ndarray]:
        if p not in memo:
            cov = coverage_counts(runs, p, signs)
            memo[p] = int(np.maximum(0, m - 2 * cov).sum()), cov
        return memo[p]

    deficit, cov = score(q)
    evals = 1
    if deficit == 0:
        return q
    step = 1 << max(0, int(n).bit_length() - 2)
    while step >= 1:
        improved = True
        while improved and evals < _DESCENT_BUDGET:
            improved = False
            failing = signs[2 * cov < m]
            agg = tuple(np.sign(-failing.sum(axis=0)).tolist())
            moves = ([agg] if any(agg) else []) + list(map(tuple, (-failing).tolist())) + dirs
            for dvec in moves:
                q2 = tuple(min(n, max(0, a + step * b)) for a, b in zip(q, dvec))
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


def _order_statistics(runs: Sequence[np.ndarray], m: int) -> np.ndarray:
    """Int64 rows ``[low weak median, high weak median, min, max]`` of each column of ``runs``
    (``m`` points), from counts in bins ``x >> 1``: prefix columns weigh runs by ``len`` (float64,
    exact below 2^53); ``x_k`` sums +1 at each run's first bin and -1 past its last, O(#runs + n)."""
    *pre, lo, lens = runs
    ends = np.bincount((lo >> 1) + lens)
    counts = [np.bincount(c >> 1, weights=lens).astype(np.int64) for c in pre]
    counts.append(np.cumsum(np.bincount(lo >> 1, minlength=len(ends)) - ends))
    ranks = [(m - 1) // 2, m // 2, 0, m - 1]
    return 2 * np.array([np.cumsum(w).searchsorted(ranks, "right") for w in counts]).T


def select_query_point(T: CandidateSet) -> GridPoint:
    """A balanced point of ``T``, chosen deterministically and verified exactly.

    k <= 2 (and an empty ``T``, which raises) goes to :func:`find_balanced_point`.  k >= 3
    runs the deficit descent on ``T.runs`` from five deterministic starts (low/high weak
    medians, bounding-box middle, grid centre, median midpoint) and falls back to the exact
    branch-and-bound if all stall.  The starts come from the set's own runs and share one
    memo of scored points.  The result is always exactly balanced; only which balanced
    point gets returned varies by path.
    """
    n, k, m = T.n, T.k, len(T)
    if k <= 2 or m == 0:
        return find_balanced_point(T)
    runs, signs, dirs = T.runs, all_sign_vectors(k), _unit_directions(k)
    lo_med, hi_med, lo, hi = _order_statistics(runs, m)
    starts = [lo_med, hi_med, (lo + hi) // 2, np.full(k, n // 2), (lo_med + hi_med) // 2]
    memo: dict = {}
    for start in starts:
        q = _descend(runs, tuple(min(n, max(0, int(v))) for v in start), n, signs, m, dirs, memo)
        if q is not None:
            return q
    return find_balanced_point(T)
