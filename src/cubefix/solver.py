"""The elimination solver: polynomially many queries to an eps-fixed point.

Driving loop on the blown-up grid ``[0, n]^k``: keep a candidate set ``Cand``
of all-even points, query a balanced point ``a`` of ``Cand``, and either stop
(residual at most ``16 / gamma``) or eliminate using the answer's sign vector
``s``: survivors are the candidates in the pyramid union with apex ``a + 2s``.
Balancedness makes every elimination remove at least half of the candidates
(the sign vector's union and its complementary union each cover at least half,
and the kept side is the complement of an escaped pyramid), so the loop makes
at most ``ceil(log2 |EVEN(n, k)|) + 1`` queries.  Two invariants are enforced
on every round of every run:

* halving: ``2 * |Cand_t| <= |Cand_{t-1}|``;
* (in tests, via ``on_round``) containment: the even points around the true
  fixed point stay in ``Cand``.

A genuine contraction can never empty the candidate set before the residual
test fires; if that happens anyway, the promise was broken and the result
carries a ``violation-found`` outcome with the evidence — it is not an error.

``solve_unit_cube`` is the user-facing entry: it runs ``solve`` on the
:class:`~cubefix.oracles.GridView` of the unit-cube oracle (which shrinks a
weakly-contracting or merely non-expansive map by ``1 - eps/2`` exactly when
``gamma < eps / 2``) and scales the answer back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .balanced import select_query_point
from .errors import InstanceTooLargeError, InternalInvariantError
from .geometry import (GridPoint, SignVector, even_count, even_grid, grid_columns,
                       linf_dist, sign_vector)
from .oracles import ContractionOracle, GridView, strong_to_weak

__all__ = [
    "DEFAULT_CANDIDATE_CAP", "CandidateSet", "RoundRecord", "SolveResult",
    "query_bound", "eliminate", "solve", "solve_unit_cube", "solve_strong",
    "picard_baseline", "InstanceTooLargeError", "InternalInvariantError",
]

DEFAULT_CANDIDATE_CAP = 10_000_000

OUTCOME_FIXED_POINT = "fixed-point-found"
OUTCOME_VIOLATION = "violation-found"
OUTCOME_FAILURE = "failure"


@dataclass(eq=False)  # sets compare by identity: columns are arrays
class CandidateSet:
    """All-even candidate points of ``[0, n]^k`` as ``k`` contiguous columns in ``grid_dtype(n)``.

    Row ``j`` is entry ``j`` of every column, in lexicographic order (``x_1`` first).
    ``CandidateSet(cols, n)`` checks and sorts outside points once, through ``grid_columns``;
    the even grid and elimination survivors keep the order and skip the check.  Columns are
    read-only: a k = 1 survivor is a slice of its parent's column, and k = 1 grids of one ``n``
    share one column (``even_grid``), so sets may share memory.
    Elimination and selection read the columns as they are; ``points`` builds int64 rows.
    """

    cols: list[np.ndarray]
    n: int

    def __post_init__(self) -> None:
        self.cols = grid_columns(self.cols, self.n)

    @classmethod
    def _built(cls, cols: list[np.ndarray], n: int) -> "CandidateSet":
        """A set of contiguous ``grid_dtype(n)`` columns the solver built itself: no check."""
        T = cls.__new__(cls)
        T.cols, T.n = cols, n
        return T

    @classmethod
    def initial(cls, n: int, k: int, cap: int = DEFAULT_CANDIDATE_CAP) -> "CandidateSet":
        count = even_count(n, k)
        if count > cap:
            raise InstanceTooLargeError(count, cap)
        return cls._built(even_grid(n, k), n)

    @property
    def points(self) -> np.ndarray:
        """The candidates as ``(m, k)`` int64 rows, built on each access."""
        return np.stack(self.cols, axis=1).astype(np.int64)

    @property
    def k(self) -> int:
        return len(self.cols)

    def __len__(self) -> int:
        return len(self.cols[0])

    def contains_points(self, pts: Sequence[Sequence[int]]) -> np.ndarray:
        """Membership mask for an ``(m, k)`` integer array of points (any other shape raises
        ``ValueError``): rows matching a point's first ``i`` coordinates are sorted on column
        ``i``; two searches narrow them per ``i``."""
        pts = np.asarray(pts, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.k:
            raise ValueError(f"points must form an (m, {self.k}) array, got shape {pts.shape}")
        out = np.zeros(len(pts), dtype=bool)
        for j, p in enumerate(pts.tolist()):
            if all(0 <= v <= self.n for v in p):
                lo, hi = 0, len(self)
                for c, v in zip(self.cols, p):
                    seg, v = c[lo:hi], c.dtype.type(v)
                    lo, hi = lo + seg.searchsorted(v, "left"), lo + seg.searchsorted(v, "right")
                out[j] = hi > lo
        return out


@dataclass(slots=True)
class RoundRecord:
    """One solver round: query point, its sign vector, and the shrink."""

    t: int
    a: GridPoint
    s: SignVector
    residual: float
    cand_size: int

    def to_json_obj(self) -> dict:
        return {"t": self.t, "a_t": list(self.a), "s": list(self.s),
                "residual": self.residual, "cand_size": self.cand_size,
                "queries_so_far": self.t}


@dataclass(slots=True)
class SolveResult:
    """Outcome of a solve run.

    ``outcome`` is one of ``fixed-point-found``, ``violation-found`` or
    ``failure``.  On a grid run ``answer`` is the returned grid point; on a
    unit-cube run it is the point in ``[0, 1]^k`` and the grid-scale values
    move to ``answer_grid`` / ``residual_grid``.  ``rounds[i].cand_size`` is
    the candidate count after that round's elimination; the terminal round
    records the size of the set whose balanced point was queried.
    """

    outcome: str
    answer: tuple | None
    residual: float | None
    queries: int
    rounds: tuple[RoundRecord, ...]
    n: int
    k: int
    gamma: float
    query_bound: int
    eps: float | None = None
    routed: bool = False
    answer_grid: GridPoint | None = None
    residual_grid: float | None = None
    violation: dict | None = None

    def round_log_lines(self) -> list[dict]:
        return [r.to_json_obj() for r in self.rounds]

    def to_json_obj(self) -> dict:
        return {
            "outcome": self.outcome,
            "answer": None if self.answer is None else list(self.answer),
            "residual": self.residual,
            "queries": self.queries,
            "rounds": self.round_log_lines(),
            "n": self.n,
            "k": self.k,
            "gamma": self.gamma,
            "eps": self.eps,
            "query_bound": self.query_bound,
            "routed": self.routed,
            "answer_grid": None if self.answer_grid is None else list(self.answer_grid),
            "residual_grid": self.residual_grid,
            "violation": self.violation,
        }


def query_bound(n: int, k: int) -> int:
    """``ceil(log2 |EVEN(n, k)|) + 1``, computed exactly in integers."""
    m = (n // 2 + 1) ** k
    return (m - 1).bit_length() + 1


def eliminate(T: CandidateSet, a: GridPoint, s: SignVector) -> CandidateSet:
    """Candidates surviving the answer-sign elimination at query point ``a``.

    Keeps the points of ``T`` lying in the pyramid union with apex
    ``b = a + 2s`` (in ``[-2, n + 2]^k``) over the coordinates where ``s`` is
    nonzero, column by column in the set's dtype: ``d_i = x_i - b_i``, their
    running ``max |d_i|``, then one mask compresses every column.  At k = 1 a
    search on the sorted column slices ``x >= b`` or ``x <= b`` as a view.  Example:
    on EVEN(8, 1) with a = 4, s = (+1,), the survivors are {6, 8}.  An
    all-zero ``s`` eliminates nothing and is a usage error.
    """
    s = tuple(int(v) for v in s)
    if len(s) != T.k or not any(s) or not set(s) <= {-1, 0, 1}:
        raise ValueError(f"sign vector must be a nonzero vector in {{-1, 0, 1}}^{T.k}, got {s}")
    b = [int(ai) + 2 * si for ai, si in zip(a, s)]
    if not all(-2 <= v <= T.n + 2 for v in b):
        raise ValueError(f"apex {b} lies outside [-2, {T.n + 2}]^{T.k}")
    if T.k == 1:  # a Python int apex would cast the whole column to int64 first
        c = T.cols[0]
        i = c.searchsorted(c.dtype.type(b[0]), "left" if s[0] > 0 else "right")
        return CandidateSet._built([c[i:] if s[0] > 0 else c[:i]], T.n)
    d = [c - bi for c, bi in zip(T.cols, b)]
    md = np.abs(d[0])
    for di in d[1:]:
        np.maximum(md, np.abs(di), out=md)
    keep = np.zeros(len(T), dtype=bool)
    for di, si in zip(d, s):
        if si != 0:
            keep |= di == (md if si > 0 else -md)
    return CandidateSet._built([c[keep] for c in T.cols], T.n)


def _oracle_grid_side(g: ContractionOracle | GridView) -> int:
    n = round(g.side)
    if abs(g.side - n) > 1e-9:
        raise ValueError(f"grid solve needs an integer side, got {g.side}")
    return int(n)


def solve(g: ContractionOracle | GridView, gamma: float, *, cap: int = DEFAULT_CANDIDATE_CAP,
          eliminate_fn: Callable[[CandidateSet, GridPoint, SignVector], CandidateSet] = eliminate,
          on_round: Callable[[RoundRecord, CandidateSet, CandidateSet | None], None] | None = None) -> SolveResult:
    """Run the elimination loop on a grid oracle ``g: [0, n]^k -> [0, n]^k``.

    Stops at the first query with residual at most ``16 / gamma``.  The
    halving invariant is asserted on every round; ``on_round(record, before,
    after)`` exposes each round to callers (``after`` is None on the terminal
    round); the sets handed out may be read-only views of each other.
    ``eliminate_fn`` is an injection seam for the mutation mode of
    the property suites; production callers leave it alone.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"solve needs a declared gamma in (0, 1], got {gamma}")
    n = _oracle_grid_side(g)
    k = g.k
    bound = query_bound(n, k)
    threshold = 16.0 / gamma
    cand = CandidateSet.initial(n, k, cap)
    rounds: tuple[RoundRecord, ...] = ()
    t = 0
    while True:
        t += 1
        if t > bound:
            raise InternalInvariantError(
                f"query bound {bound} exceeded at round {t}: halving should have "
                f"emptied the candidate set")
        a = select_query_point(cand, n, k)
        ga = g(tuple(float(v) for v in a))
        residual = linf_dist(ga, a)
        if residual <= threshold:
            rec = RoundRecord(t, a, (0,) * k, residual, len(cand))
            rounds += (rec,)
            if on_round is not None:
                on_round(rec, cand, None)
            return SolveResult(OUTCOME_FIXED_POINT, a, residual, t, rounds, n, k,
                               gamma, bound)
        s = sign_vector(a, ga)
        nxt = eliminate_fn(cand, a, s)
        if 2 * len(nxt) > len(cand):
            raise InternalInvariantError(
                f"halving failed at round {t}: {len(cand)} -> {len(nxt)} candidates "
                f"(query {a}, sign {s})")
        rec = RoundRecord(t, a, s, residual, len(nxt))
        rounds += (rec,)
        if on_round is not None:
            on_round(rec, cand, nxt)
        if len(nxt) == 0:
            return SolveResult(
                OUTCOME_VIOLATION, None, residual, t, rounds, n, k, gamma, bound,
                violation={"reason": "empty-candidate-set", "round": t,
                           "a": list(a), "g_a": list(ga), "residual": residual,
                           "sign": list(s)})
        cand = nxt


def solve_unit_cube(f: ContractionOracle, eps: float, gamma: float, *,
                    cap: int = DEFAULT_CANDIDATE_CAP,
                    on_round=None) -> SolveResult:
    """Find an eps-fixed point of ``f`` on the unit cube, or violation evidence.

    Runs :func:`solve` on ``GridView(f, eps, gamma)``, which shrinks ``f`` by
    ``1 - eps/2`` exactly when ``gamma < eps/2`` (in particular whenever the
    oracle is only promised non-expansive) and works on ``[0, n]^k`` with
    ``n = ceil(16 / (gamma' eps'))``.  Query counts on ``f`` and on the grid
    agree one-for-one.
    """
    g = GridView(f, eps, gamma)
    queries_before = f.queries
    res = solve(g, g.gamma, cap=cap, on_round=on_round)
    spent = f.queries - queries_before
    if spent != res.queries:
        raise InternalInvariantError(
            f"query accounting mismatch: {spent} base queries vs {res.queries} grid queries")
    res.routed = g.routed
    res.eps = eps
    res.gamma = gamma
    if res.outcome == OUTCOME_FIXED_POINT:
        x = tuple(v / g.n for v in res.answer)
        last_q, last_ans = f.transcript[len(f.transcript) - 1]
        if linf_dist(last_q, x) > 1e-12:
            raise InternalInvariantError("final answer is not the final query")
        res.answer_grid = res.answer
        res.residual_grid = res.residual
        res.answer = x
        res.residual = linf_dist(last_ans, last_q)
    return res


def solve_strong(f: ContractionOracle, eps: float, gamma: float, **kwargs) -> SolveResult:
    """Point within ``eps`` of the true fixed point, via the weak solver.

    Runs the weak solver at ``(eps * gamma, gamma)``: a residual of
    ``eps * gamma`` under a ``(1 - gamma)``-contraction pins the fixed point
    within ``eps``.
    """
    weak_eps, weak_gamma = strong_to_weak(eps, gamma)
    return solve_unit_cube(f, weak_eps, weak_gamma, **kwargs)


def picard_baseline(f: ContractionOracle, eps: float, start: Sequence[float] | None = None,
                    max_queries: int | None = None) -> SolveResult:
    """Plain fixed-point iteration ``x <- f(x)`` until the residual is small.

    The comparison baseline: query count grows like ``(1/gamma) log(1/eps)``
    on genuine contractions and is unbounded on non-expansive maps.  Starts
    at the origin corner by default.  A constant map costs exactly two
    queries: one to see the constant, one to confirm it is fixed.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = tuple(0.0 for _ in range(f.k)) if start is None else tuple(float(v) for v in start)
    if max_queries is None:
        if f.gamma > 0:
            max_queries = 64 + math.ceil((4.0 / f.gamma) * math.log(4.0 * f.side / eps))
        else:
            max_queries = 100_000
    queries = 0
    residual = math.inf
    for _ in range(max_queries):
        y = f(x)
        queries += 1
        residual = linf_dist(y, x)
        if residual <= eps:
            return SolveResult(OUTCOME_FIXED_POINT, x, residual, queries, (),
                               n=0, k=f.k, gamma=f.gamma, query_bound=0, eps=eps)
        x = y
    return SolveResult(OUTCOME_FAILURE, x, residual, queries, (),
                       n=0, k=f.k, gamma=f.gamma, query_bound=0, eps=eps)
