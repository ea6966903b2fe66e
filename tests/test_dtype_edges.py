"""Column kernels against int64 row references where the grid dtype changes.

The grid of side ``n`` is stored in the narrowest integer dtype holding
``2n + 4`` (int16 up to n = 16381, then int32 up to n = 1073741821).  These
tests sit on both sides of those limits, where a dtype picked from ``n``
alone would wrap: ``x_i - b_i`` for the apexes ``b = -2`` and ``b = n + 2``,
and the k = 2 projection ``x1 + x2`` that reaches ``2n``.
"""

import numpy as np
import pytest

from cubefix.balanced import all_sign_vectors, is_balanced, select_query_point
from cubefix.geometry import even_grid, grid_dtype
from cubefix.solver import CandidateSet, eliminate

INT16_EDGE = (16380, 16382)  # 2n + 4 = 32764 fits int16; 32768 does not


def edge_points(n, k, rng, size=400):
    """Random even points of [0, n]^k, weighted towards the corners."""
    low = rng.integers(0, 4, size=(size, k)) * 2
    high = n - rng.integers(0, 4, size=(size, k)) * 2
    mid = rng.integers(0, n // 2 + 1, size=(size, k)) * 2
    pick = rng.integers(0, 3, size=(size, k))
    pts = np.where(pick == 0, low, np.where(pick == 1, high, mid)).astype(np.int64)
    return np.unique(pts, axis=0)


def as_set(pts, n):
    return CandidateSet(cols=list(pts.T), n=n)


def eliminate_rows(pts, a, s):
    """int64 row reference: keep rows whose max offset from a + 2s is attained along s."""
    s = np.asarray(s, dtype=np.int64)
    d = pts - (np.asarray(a, dtype=np.int64) + 2 * s)
    md = np.abs(d).max(axis=1)
    keep = np.zeros(len(pts), dtype=bool)
    for i, si in enumerate(s):
        if si != 0:
            keep |= si * d[:, i] == md
    return pts[keep]


def balanced_rows(q, pts):
    """int64 row reference for balancedness, one pass per full sign vector."""
    d = pts - np.asarray(q, dtype=np.int64)
    for s in all_sign_vectors(pts.shape[1]):
        sd = s * d
        if 2 * np.count_nonzero(sd.max(axis=1) + sd.min(axis=1) >= 0) < len(pts):
            return False
    return True


def k2_lex_min_rows(pts, n):
    """int64 reference for the k = 2 closed form: weak medians, then a scan over q1."""
    def median_interval(v):
        v = np.sort(v)
        c = (len(v) + 1) // 2
        return int(v[c - 1]), int(v[len(v) - c])
    u_lo, u_hi = median_interval(pts[:, 0] + pts[:, 1])
    v_lo, v_hi = median_interval(pts[:, 0] - pts[:, 1])
    for q1 in range(n + 1):
        a, b = max(u_lo - q1, q1 - v_hi, 0), min(u_hi - q1, q1 - v_lo, n)
        if a <= b:
            return (q1, a)
    return None


def check_against_rows(pts, n, apexes, rng):
    T = as_set(pts, n)
    k = pts.shape[1]
    assert T.cols[0].dtype == grid_dtype(n)
    for a, s in apexes:
        got = eliminate(T, a, s)
        assert np.array_equal(got.points, eliminate_rows(pts, a, s))
    q = select_query_point(T, n, k)
    assert balanced_rows(q, pts)
    if k == 2:
        assert q == k2_lex_min_rows(pts, n)
    for q in [tuple(int(v) for v in rng.integers(0, n + 1, size=k)) for _ in range(10)]:
        q = q if rng.random() < 0.5 else tuple(n - v for v in q)
        assert is_balanced(q, T) == balanced_rows(q, pts)


def corner_apexes(n, k):
    """Queries at both corners, signed outwards, so the apex reaches -2 and n + 2."""
    out = []
    for corner, sign in ((0, -1), (n, 1)):
        out.append(((corner,) * k, (sign,) * k))
        out.append(((corner,) + (n // 2,) * (k - 1), (sign,) + (0,) * (k - 1)))
    return out


def test_dtype_switches_where_2n_plus_4_leaves_int16():
    assert grid_dtype(16381) == np.int16
    assert grid_dtype(16382) == np.int32
    assert grid_dtype((2 ** 31 - 1 - 4) // 2) == np.int32
    assert grid_dtype((2 ** 31 - 1 - 4) // 2 + 1) == np.int64
    assert even_grid(16380, 1)[0].dtype == np.int16
    assert even_grid(16382, 1)[0].dtype == np.int32


@pytest.mark.parametrize("n", INT16_EDGE)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_columns_match_rows_at_the_int16_edge(n, k):
    rng = np.random.default_rng(n + k)
    pts = edge_points(n, k, rng)
    check_against_rows(pts, n, corner_apexes(n, k), rng)


def test_columns_match_rows_at_k1_int32():
    # k12-fine's k = 1 grid: n = 16 000 000 is stored in int32.
    n = 16_000_000
    rng = np.random.default_rng(1)
    pts = edge_points(n, 1, rng, size=2000)
    assert grid_dtype(n) == np.int32
    check_against_rows(pts, n, [((0,), (-1,)), ((n,), (1,)), ((2,), (-1,)),
                                ((n - 2,), (1,))], rng)


@pytest.mark.parametrize("n", [16384, 20000, 32760])
def test_k2_sums_do_not_wrap_near_the_int16_limit(n):
    # x1 + x2 reaches 2n > 32767 while n itself fits int16.
    rng = np.random.default_rng(n)
    pts = edge_points(n, 2, rng)
    top = np.array([[n, n], [n, n - 2], [n - 2, n], [n - 2, n - 2], [n - 4, n - 4]])
    for T in (pts, np.unique(np.concatenate([pts[:4], top]), axis=0)):
        check_against_rows(T, n, corner_apexes(n, 2), rng)


def test_eliminate_refuses_an_apex_the_dtype_cannot_hold():
    # A query point outside [0, n]^k would put b = a + 2s past [-2, n + 2]^k,
    # where x_i - b_i may no longer fit the grid dtype.
    T = CandidateSet.initial(16380, 1)
    for a, s in [((16381,), (1,)), ((-1,), (-1,)), ((40000,), (-1,))]:
        with pytest.raises(ValueError):
            eliminate(T, a, s)
    assert len(eliminate(T, (16380,), (1,))) == 0


def eliminate_k1_mask(col, b, s):
    """The k = 1 mask rule in the column dtype: keep x where ``x - b == s * |x - b|``."""
    d = col - col.dtype.type(b)
    return col[d == (np.abs(d) if s > 0 else -np.abs(d))]


@pytest.mark.parametrize("n", [16380, 16_000_000])
def test_k1_elimination_slices_like_the_mask_rule(n):
    # int16 and int32 columns; the apex b = a + 2s runs over -2, 0, n, n + 2,
    # points of the set and values between them.
    rng = np.random.default_rng(n)
    dense = rng.integers(n // 4 - 20, n // 4 + 20, size=300) * 2
    sets = [np.unique(rng.integers(0, n // 2 + 1, size=500)) * 2,  # sorted
            rng.integers(0, n // 2 + 1, size=500) * 2,             # unsorted
            np.concatenate([dense, [0, 0, n, n], dense[:50]]),      # duplicated
            np.array([0, n]), np.array([n // 2 * 2])]
    for pts in sets:
        T = CandidateSet([pts], n)
        col = T.cols[0]
        assert col.dtype == grid_dtype(n)
        for b in [-2, 0, 2, n - 2, n, n + 2, int(pts[0]), int(pts[-1]), int(pts[0]) + 1,
                  int(rng.integers(-2, n + 3))]:
            for s in (1, -1):
                got = eliminate(T, (b - 2 * s,), (s,)).cols[0]
                want = eliminate_k1_mask(col, b, s)
                assert got.dtype == col.dtype and np.array_equal(got, want)
                assert np.array_equal(got, eliminate_rows(np.sort(pts)[:, None], (b - 2 * s,),
                                                          (s,))[:, 0])
