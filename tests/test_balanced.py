"""Tests for balanced-point search, checked against a literal brute-force verifier.

The verifier below recomputes pyramid-union coverage straight from the
definition (max + min of signed offsets per point), independently of the
vectorised implementation under test.  ``reference_coverage_counts`` is the
plain one-pass-per-sign kernel over rows, kept as a second reference for sets
too large for the verifier; ``expand_runs`` turns the kernel's runs back into
rows for it.  ``reference_box_feasible`` is a row-based branch-and-bound box
test: every sign at its best corner by the max + min identity on int64 rows.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubefix.balanced
from cubefix.balanced import (
    _BranchBound,
    _k2_point,
    _median_interval,
    _order_statistics,
    all_sign_vectors,
    coverage_counts,
    find_balanced_point,
    is_balanced,
    runs_of,
    select_query_point,
)
from cubefix.geometry import grid_columns
from cubefix.solver import CandidateSet, eliminate
from pyramids import PyramidSpec, enumerate_even, in_pyramid


def covered_by_definition(x, q, s) -> bool:
    """x in U_i P_i(q, s_i), evaluated pyramid by pyramid."""
    return any(in_pyramid(x, PyramidSpec(q, i, s[i])) for i in range(len(q)))


def reference_coverage_counts(cols, q, signs):
    """One pass per sign: count rows with max + min of ``s_i * (x_i - q_i)`` >= 0."""
    k = len(cols)
    out = np.empty(len(signs), dtype=np.int64)
    for si, s in enumerate(signs):
        mx = cols[0] * int(s[0]) - int(s[0]) * int(q[0])
        mn = mx.copy()
        for i in range(1, k):
            b = cols[i] * int(s[i]) - int(s[i]) * int(q[i])
            np.maximum(mx, b, out=mx)
            np.minimum(mn, b, out=mn)
        out[si] = int(np.count_nonzero(mx >= -mn))
    return out


def reference_box_feasible(cols, lo, hi):
    """Whether every sign's best corner of the box ``[lo, hi]`` covers half of the rows:
    the max + min identity on int64 rows, all signs in one broadcast."""
    signs = all_sign_vectors(len(cols))[:, :, None]
    corner = np.where(signs > 0, np.asarray(lo)[:, None], np.asarray(hi)[:, None])
    sd = signs * (np.stack(cols).astype(np.int64) - corner)
    cov = (sd.max(axis=1) + sd.min(axis=1) >= 0).sum(axis=1)
    return 2 * int(cov.min()) >= len(cols[0])


def expand_runs(runs):
    """The int64 rows ``[x_1 .. x_{k-1}, lo + 2j]``, ``0 <= j < len``, of every run, in order."""
    *pre, lo, lens = [np.asarray(c, dtype=np.int64) for c in runs]
    idx = np.repeat(np.arange(len(lo)), lens)
    j = np.arange(len(idx)) - np.repeat(np.cumsum(lens) - lens, lens)
    return [c[idx] for c in pre] + [lo[idx] + 2 * j]


def prefix_count(runs):
    """Distinct prefixes ``x_1 .. x_{k-1}`` among the runs; at k = 1 all share the empty one."""
    if len(runs) == 2:
        return min(1, len(runs[0]))
    return len(set(zip(*(c.tolist() for c in runs[:-2]))))


def balanced_by_definition(q, T) -> bool:
    m = len(T)
    for s in itertools.product((-1, 1), repeat=len(q)):
        count = sum(covered_by_definition(x, q, s) for x in T)
        if 2 * count < m:
            return False
    return True


def as_set(pts, n):
    """The point list ``pts`` as a set on ``[0, n]^k``, through the one intake check."""
    return CandidateSet(np.array(pts).T, n)


def naive_lex_minimum(T, n, k):
    for q in itertools.product(range(n + 1), repeat=k):
        if balanced_by_definition(q, T):
            return q
    return None


def test_is_balanced_examples_k1():
    T = as_set([(0,), (2,), (4,), (6,), (8,)], 8)
    assert is_balanced((4,), T) is True
    assert is_balanced((0,), T) is False
    assert is_balanced((2,), as_set([(2,)], 2)) is True


def test_is_balanced_matches_definition_randomly():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        grid = list(enumerate_even(n, k))
        size = int(rng.integers(1, len(grid) + 1))
        idx = rng.choice(len(grid), size=size, replace=False)
        T = [grid[i] for i in idx]
        q = tuple(int(v) for v in rng.integers(0, n + 1, size=k))
        assert is_balanced(q, as_set(T, n)) == balanced_by_definition(q, T)


def test_is_balanced_query_far_outside_the_grid():
    # The differences x - q overflow int16 although n alone fits it: the
    # downward pyramid at -3000 covers no point, so q is not balanced.
    T = [(0,), (30000,)]
    for q in [(-3000,), (-40000,), (70000,)]:
        assert is_balanced(q, as_set(T, 30000)) is False
        assert is_balanced(q, CandidateSet([[0, 16000]], 16000)) is False  # int16 columns
        assert balanced_by_definition(q, T) is False
    assert is_balanced((15000,), as_set(T, 30000)) is True


def test_columns_dtype_holds_every_difference():
    # 2n + 4 bounds every value the kernels form; it leaves int16 at n = 16382
    # and int32 at n = 2^30 - 2.
    for n, dt in [(16381, np.int16), (16382, np.int32), (2 ** 30 - 3, np.int32),
                  (2 ** 30 - 2, np.int64)]:
        top = n - n % 2
        cols = grid_columns([np.array([0, top], dtype=np.int64)], n)
        assert cols[0].dtype == dt
        assert cols[0].tolist() == [0, top]


def test_coverage_counts_matches_definition():
    rng = np.random.default_rng(1)
    for k in range(1, 5):
        signs = all_sign_vectors(k)
        for n in (10, 40_000):
            for trial in range(25):
                pts = rng.integers(0, n // 2 + 1, size=(int(rng.integers(1, 12)), k)) * 2
                q = [0] * k if trial == 0 else [n] * k if trial == 1 else (
                    [int(v) for v in rng.integers(0, n + 1, size=k)])
                cols = grid_columns(list(pts.T), n)
                assert cols[0].dtype == (np.int16 if n == 10 else np.int32)
                want = [
                    sum(covered_by_definition(tuple(x), q, tuple(s)) for x in pts)
                    for s in signs
                ]
                assert list(coverage_counts(runs_of(cols), q, signs)) == want
                assert list(reference_coverage_counts(cols, q, signs)) == want


def test_coverage_counts_matches_reference_on_large_shuffled_sets():
    # Shuffled rows with duplicates: most runs are single rows, some are long.
    rng = np.random.default_rng(6)
    for k, n in [(3, 256), (4, 64), (1, 40_000)]:
        signs = all_sign_vectors(k)
        pts = rng.integers(0, n // 2 + 1, size=(2 ** 17 + 123, k)) * 2
        pts = np.concatenate([pts, np.array(sorted(map(tuple, pts[:4000])))])
        cols = grid_columns(list(pts.T), n)
        for q in ([0] * k, [n] * k, [int(v) for v in rng.integers(0, n + 1, size=k)]):
            want = reference_coverage_counts(cols, q, signs)
            assert list(coverage_counts(runs_of(cols), q, signs)) == list(want)


def test_runs_expand_to_the_same_rows():
    # Any order, duplicates and odd values: runs only join rows x_k, x_k + 2 of one prefix.
    rng = np.random.default_rng(10)
    for k in range(1, 5):
        for trial in range(30):
            m = int(rng.integers(1, 200))
            pts = rng.integers(-6, 7, size=(m, k))
            if trial % 3 == 0:
                pts = np.array(sorted(map(tuple, pts)))
            cols = list(pts.T)
            runs = runs_of(cols)
            assert len(runs) == k + 1 and all(r.dtype == np.int64 for r in runs)
            assert np.all(runs[-1] >= 1) and int(runs[-1].sum()) == m
            assert [c.tolist() for c in expand_runs(runs)] == [c.tolist() for c in cols]


def test_coverage_counts_on_shuffled_runs_matches_reference():
    rng = np.random.default_rng(11)
    for k in range(1, 5):
        signs = all_sign_vectors(k)
        for n, dt in [(12, np.int16), (40_000, np.int32)]:
            for trial in range(20):
                pts = rng.integers(0, n // 2 + 1, size=(int(rng.integers(1, 400)), k)) * 2
                if trial % 2:  # sorted, then shuffled in blocks of rows: long and short runs
                    pts = np.array(sorted(map(tuple, pts)))
                    cut = np.sort(rng.integers(0, len(pts), size=5))
                    parts = np.split(pts, cut)
                    pts = np.concatenate([parts[i] for i in rng.permutation(len(parts))])
                cols = grid_columns(list(pts.T), n)
                assert cols[0].dtype == dt
                runs = runs_of(cols)
                assert runs[-1].dtype == dt
                for q in ([0] * k, [n] * k, [int(v) for v in rng.integers(0, n + 1, size=k)]):
                    want = reference_coverage_counts(cols, q, signs)
                    assert list(coverage_counts(runs, q, signs)) == list(want)


def test_coverage_counts_on_a_stack_of_points_matches_each_point():
    # The box test scores sign j at the j-th of 2**k points: entry j of coverage_counts there.
    rng = np.random.default_rng(15)
    for k in range(1, 5):
        signs = all_sign_vectors(k)
        for n in (12, 40_000):
            pts = rng.integers(0, n // 2 + 1, size=(300, k)) * 2
            runs = runs_of(grid_columns(list(pts.T), n))
            for _ in range(5):
                qs = rng.integers(0, n + 1, size=(2 ** k, k))
                got = _BranchBound(runs, n).own_sign_counts(qs)
                assert got.shape == (2 ** k,)
                want = [int(coverage_counts(runs, q, signs)[j]) for j, q in enumerate(qs)]
                assert got.tolist() == want


def test_box_test_matches_the_row_kernel():
    # Random boxes, degenerate boxes and boxes ending at each set's selected point,
    # on random even sets, on sets above the row kernel's old block of 65,536
    # values (signs x rows x k) and on eliminated grids.
    rng = np.random.default_rng(16)
    sets = [(T.cols, n) for T, n, _ in _shrunk_grids((-1, 0, 1))]
    for k, n, sizes in [(3, 10, (1, 5, 29, 150)), (4, 8, (1, 7, 40, 300)),
                        (3, 40, (4000,)), (4, 16, (3000,))]:
        for size in sizes:
            pts = rng.integers(0, n // 2 + 1, size=(size, k)) * 2
            sets.append((grid_columns(list(pts.T), n), n))
    verdicts = set()
    for cols, n in sets:
        k = len(cols)
        box = _BranchBound(runs_of(cols), n)
        q = np.array(select_query_point(CandidateSet(cols, n)))
        boxes = [(q, q), (np.maximum(q - 1, 0), q), (np.zeros(k, int), q)]
        for _ in range(30):
            lo = rng.integers(0, n + 1, size=k)
            hi = lo + rng.integers(0, n + 1 - lo)
            boxes += [(lo, hi), (lo, lo)]
        for lo, hi in boxes:
            want = reference_box_feasible(cols, lo, hi)
            assert box._box_feasible(lo, hi) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_coverage_counts_matches_reference_in_five_to_seven_dimensions():
    # 2**(k - 1) prefix masks per point, against the one-pass-per-sign kernel; the
    # selected points are balanced by it too (k = 7 descends along axes only).
    rng = np.random.default_rng(17)
    for k, n in [(5, 8), (6, 6), (7, 4)]:
        grid = np.stack(CandidateSet.initial(n, k).cols, axis=1)
        signs = all_sign_vectors(k)
        for keep in (1.0, 0.3, 0.02):
            pts = grid[rng.random(len(grid)) < keep]
            cols = grid_columns(list(pts.T), n)
            runs = runs_of(cols)
            qs = [[0] * k, [n] * k] + [list(rng.integers(0, n + 1, size=k)) for _ in range(4)]
            qs.append(list(select_query_point(as_set(pts, n))))
            for q in qs:
                want = reference_coverage_counts(cols, q, signs)
                assert coverage_counts(runs, q, signs).tolist() == want.tolist()
            assert np.all(2 * want >= len(pts))
        few = grid[rng.choice(len(grid), size=6, replace=False)]
        runs = runs_of(grid_columns(list(few.T), n))
        for q in ([n // 2] * k, list(rng.integers(0, n + 1, size=k))):
            want = [sum(covered_by_definition(tuple(x), q, tuple(s)) for x in few) for s in signs]
            assert coverage_counts(runs, q, signs).tolist() == want


def test_coverage_counts_at_the_int16_edge():
    # n = 16381 is the largest int16 grid: the threshold q_k + P - lo + 2 reaches 2n + 2.
    n = 16381
    rng = np.random.default_rng(18)
    for k in (1, 3, 4):
        signs = all_sign_vectors(k)
        pts = rng.integers(0, n // 2 + 1, size=(500, k)) * 2
        pts[:2 ** k] = np.array(list(itertools.product((0, n - 1), repeat=k)))
        cols = grid_columns(list(pts.T), n)
        assert cols[0].dtype == np.int16
        runs = runs_of(cols)
        wide = [c.astype(np.int64) for c in cols]
        qs = [[0] * k, [n] * k, [0] * (k - 1) + [n], [n] * (k - 1) + [0]]
        qs += [list(rng.integers(0, n + 1, size=k)) for _ in range(6)]
        for q in qs:
            want = reference_coverage_counts(wide, q, signs)
            assert coverage_counts(runs, q, signs).tolist() == want.tolist()
        corners = rng.choice((0, n), size=(2 ** k, k))
        want = [reference_coverage_counts(wide, c, signs)[j] for j, c in enumerate(corners)]
        assert _BranchBound(runs, n).own_sign_counts(corners).tolist() == want


def test_coverage_counts_on_tied_prefixes():
    # Runs whose prefix offsets from q tie at +-P on two or more coordinates, and runs
    # with P = 0 (the prefix is q's own), each under a full x_k column.
    n = 20
    for k, q in [(3, (10, 10, 10)), (4, (10, 10, 10, 10)), (4, (10, 6, 14, 8)), (3, (9, 11, 10))]:
        signs = all_sign_vectors(k)
        offsets = [(-4, 0, 4) if c % 2 == 0 else (-1, 1) for c in q[:-1]]
        prefixes = itertools.product(*[[c + o for o in offs] for c, offs in zip(q, offsets)])
        pts = np.array([p + (x,) for p in prefixes for x in range(0, n + 1, 2)])
        cols = grid_columns(list(pts.T), n)
        runs = runs_of(cols)
        d = np.abs(np.array(runs[:-2]).T - q[:-1])
        P = d.max(axis=1)
        ties = ((d == P[:, None]).sum(axis=1) >= 2) & (P > 0)
        assert ties.any() and (P == 0).any() == (q[0] % 2 == 0)
        for x in (q, q[:-1] + (0,), q[:-1] + (n,)):
            want = reference_coverage_counts(cols, x, signs)
            assert coverage_counts(runs, x, signs).tolist() == want.tolist()
            corners = np.array([x] * 2 ** k)
            assert _BranchBound(runs, n).own_sign_counts(corners).tolist() == want.tolist()
        few = pts[::17]
        runs = runs_of(grid_columns(list(few.T), n))
        want = [sum(covered_by_definition(tuple(x), q, tuple(s)) for x in few) for s in signs]
        assert coverage_counts(runs, q, signs).tolist() == want


def test_own_sign_box_test_at_five_dimensions():
    rng = np.random.default_rng(19)
    n, k = 8, 5
    grid = np.stack(CandidateSet.initial(n, k).cols, axis=1)
    verdicts = set()
    for keep in (1.0, 0.5, 0.1, 0.01):
        pts = grid[rng.random(len(grid)) < keep]
        cols = grid_columns(list(pts.T), n)
        box = _BranchBound(runs_of(cols), n)
        q = np.array(select_query_point(as_set(pts, n)))
        boxes = [(q, q), (np.maximum(q - 1, 0), q), (np.zeros(k, int), q)]
        for _ in range(25):
            lo = rng.integers(0, n + 1, size=k)
            hi = lo + rng.integers(0, n + 1 - lo)
            boxes += [(lo, hi), (lo, lo)]
        for lo, hi in boxes:
            want = reference_box_feasible(cols, lo, hi)
            assert box._box_feasible(lo, hi) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_coverage_counts_needs_the_full_sign_table():
    for k in (1, 3):
        signs = all_sign_vectors(k)
        runs = runs_of(grid_columns(list(np.zeros((3, k), dtype=np.int64).T), 4))
        for bad in (signs[1:2], signs[:-1], signs[::-1], np.concatenate([signs, signs])):
            with pytest.raises(ValueError):
                coverage_counts(runs, [2] * k, bad)


def test_find_balanced_full_even_line():
    assert find_balanced_point(as_set([(0,), (2,), (4,), (6,), (8,)], 8)) == (4,)
    # even count: both weak medians qualify; lexicographic rule takes the lower
    assert find_balanced_point(as_set([(0,), (2,), (4,), (6,)], 6)) == (2,)


def test_k1_selection_is_the_lower_weak_median():
    # At k = 1 the sorted column gives the lower weak median by index; check it
    # against the partition on sorted, unsorted and duplicated sets of both parities.
    rng = np.random.default_rng(13)
    for n in (40, 40_000):
        for size in (1, 2, 3, 4, 7, 50, 51):
            for pts in (np.sort(rng.integers(0, n // 2 + 1, size=size)) * 2,
                        rng.integers(0, n // 2 + 1, size=size) * 2,
                        np.repeat(rng.integers(0, n // 2 + 1, size=(size + 1) // 2) * 2, 2)):
                want = (_median_interval(pts)[0],)
                T = CandidateSet([pts], n)
                assert find_balanced_point(T) == want
                assert select_query_point(T) == want
                assert is_balanced(want, T)


def test_order_statistics_from_runs_match_the_rows():
    # Weak medians and extremes of every column, read off the runs, against the
    # partition and min/max on the rows: solver sets and duplicated random sets.
    rng = np.random.default_rng(14)
    cases = [T.cols for T, _, _ in _shrunk_grids((-1, 0, 1))]
    for k in range(1, 5):
        for size in (1, 2, 9, 200):
            pts = rng.integers(0, 6, size=(size, k)) * 2
            cases.append(grid_columns(list(np.concatenate([pts, pts[: size // 3]]).T), 10))
    for cols in cases:
        m = len(cols[0])
        got = _order_statistics(runs_of(cols), m)
        want = [[_median_interval(c)[0] for c in cols], [_median_interval(c)[1] for c in cols],
                [int(c.min()) for c in cols], [int(c.max()) for c in cols]]
        assert got.dtype == np.int64 and got.tolist() == want


def test_find_balanced_singleton_is_at_most_the_point():
    for x in [(0, 0), (2, 4), (4, 2), (4, 4)]:
        q = find_balanced_point(as_set([x], 4))
        assert balanced_by_definition(q, [x])
        assert q <= x
    assert balanced_by_definition((2, 4), [(2, 4)])


def test_find_balanced_two_corners():
    T = [(0, 0), (4, 4)]
    q = find_balanced_point(as_set(T, 4))
    assert balanced_by_definition(q, T)
    assert q == naive_lex_minimum(T, 4, 2)


def test_exhaustive_lex_minimum_small_grids():
    # Every non-empty subset of the even grid, cross-checked against the
    # naive lexicographic scan.
    for n, k in [(2, 2), (4, 1), (6, 1)]:
        grid = list(enumerate_even(n, k))
        for mask in range(1, 2 ** len(grid)):
            T = [grid[i] for i in range(len(grid)) if mask >> i & 1]
            got = find_balanced_point(as_set(T, n))
            assert got == naive_lex_minimum(T, n, k)


def test_lex_minimum_random_k2():
    rng = np.random.default_rng(2)
    grid = list(enumerate_even(8, 2))
    for _ in range(150):
        size = int(rng.integers(1, 12))
        idx = rng.choice(len(grid), size=size, replace=False)
        T = sorted(grid[i] for i in idx)
        got = find_balanced_point(as_set(T, 8))
        assert got == naive_lex_minimum(T, 8, 2)


def test_lex_minimum_random_k3():
    # Branch-and-bound (k >= 3) against the naive scan, on EVEN(6, 3) and EVEN(4, 4).
    rng = np.random.default_rng(3)
    for n, k, sets in [(6, 3, 25), (4, 4, 25)]:
        grid = list(enumerate_even(n, k))
        for _ in range(sets):
            size = int(rng.integers(1, 10))
            idx = rng.choice(len(grid), size=size, replace=False)
            T = sorted(grid[i] for i in idx)
            got = find_balanced_point(as_set(T, n))
            assert got == naive_lex_minimum(T, n, k)


def k2_point_by_scan(u_lo, u_hi, v_lo, v_hi, n):
    """The k = 2 lexicographic minimum by scanning q1 over 0..n."""
    for q1 in range(n + 1):
        a = max(u_lo - q1, q1 - v_hi, 0)
        b = min(u_hi - q1, q1 - v_lo, n)
        if a <= b:
            return (q1, a)
    return None


def test_k2_interval_intersection_matches_scan():
    rng = np.random.default_rng(9)
    hits = misses = 0
    for _ in range(20_000):
        n = int(rng.integers(0, 41))
        u_lo, u_hi = sorted(int(v) for v in rng.integers(-4, 2 * n + 5, size=2))
        v_lo, v_hi = sorted(int(v) for v in rng.integers(-n - 4, n + 5, size=2))
        want = k2_point_by_scan(u_lo, u_hi, v_lo, v_hi, n)
        assert _k2_point(u_lo, u_hi, v_lo, v_hi, n) == want
        hits += want is not None
        misses += want is None
    assert hits > 1000 and misses > 1000


def test_select_query_point_balanced_k3_k4():
    rng = np.random.default_rng(4)
    for k, n in [(3, 10), (4, 8), (3, 20)]:
        grid = list(enumerate_even(n, k))
        for _ in range(20):
            size = int(rng.integers(1, min(40, len(grid)) + 1))
            idx = rng.choice(len(grid), size=size, replace=False)
            T = [grid[i] for i in idx]
            q = select_query_point(as_set(T, n))
            assert all(0 <= v <= n for v in q)
            assert balanced_by_definition(q, T)


def test_select_query_point_agrees_with_exact_for_k_le_2():
    rng = np.random.default_rng(5)
    grid = list(enumerate_even(10, 2))
    for _ in range(50):
        size = int(rng.integers(1, 15))
        idx = rng.choice(len(grid), size=size, replace=False)
        T = as_set([grid[i] for i in idx], 10)
        assert select_query_point(T) == find_balanced_point(T)


def _shrunk_grids(values=(-1, 1)):
    """EVEN(40, 3) and EVEN(16, 4) after one to three eliminations at their select points,
    with sign entries drawn from ``values`` (an all-zero draw becomes ``(1, 0, ..)``)."""
    rng = np.random.default_rng(7)
    for n, k in [(40, 3), (16, 4)]:
        T = CandidateSet.initial(n, k)
        for _ in range(3):
            a = select_query_point(T)
            s = tuple(int(v) for v in rng.choice(values, size=k))
            T = eliminate(T, a, s if any(s) else (1,) + (0,) * (k - 1))
            if len(T) == 0:
                break
            yield T, n, k


def test_select_query_point_same_trajectory_as_reference_kernel(monkeypatch):
    cases = list(_shrunk_grids())
    assert len(cases) >= 4
    want = [select_query_point(T) for T, _, _ in cases]

    def reference_on_runs(runs, q, signs):
        return reference_coverage_counts(expand_runs(runs), q, signs)

    monkeypatch.setattr(cubefix.balanced, "coverage_counts", reference_on_runs)
    assert [select_query_point(T) for T, _, _ in cases] == want


def test_eliminated_grids_keep_one_run_per_prefix():
    # Each elimination keeps an interval of x_k per prefix, so the lexicographic
    # rows of a solver set form at most one run per prefix.
    for values in ((-1, 1), (-1, 0, 1)):
        cases = list(_shrunk_grids(values))
        assert len(cases) >= 4
        for T, n, k in cases:
            runs = runs_of(T.cols)
            assert prefix_count(runs) == len(runs[0])
            assert [c.tolist() for c in expand_runs(runs)] == [c.tolist() for c in T.cols]
    for k, n in [(1, 40), (2, 40)]:
        T = CandidateSet.initial(n, k)
        for s in [(1,) * k, (-1,) + (0,) * (k - 1), (0,) * (k - 1) + (1,)]:
            T = eliminate(T, (n // 2,) * k, s)
            runs = runs_of(T.cols)
            assert prefix_count(runs) == len(runs[0])


def test_select_query_point_falls_back_to_exact_search(monkeypatch):
    monkeypatch.setattr(cubefix.balanced, "_descend", lambda *args, **kwargs: None)
    rng = np.random.default_rng(8)
    grid = list(enumerate_even(10, 3))
    for _ in range(5):
        idx = rng.choice(len(grid), size=int(rng.integers(1, 30)), replace=False)
        T = [grid[i] for i in idx]
        q = select_query_point(as_set(T, 10))
        assert q == find_balanced_point(as_set(T, 10))
        assert balanced_by_definition(q, T)


def test_select_query_point_falls_back_to_exact_search_on_solver_sized_sets(monkeypatch):
    # EVEN(48, 3) after one elimination at its select point: 6,480 rows, about 1,700
    # box tests.  Searched with reference_box_feasible, it ends at the same point.
    monkeypatch.setattr(cubefix.balanced, "_descend", lambda *args, **kwargs: None)
    n, k = 48, 3
    T = CandidateSet.initial(n, k)
    T = eliminate(T, select_query_point(T), (1, 1, 1))
    assert len(T) == 6480
    q = select_query_point(T)
    assert q == find_balanced_point(T) == (30, 30, 30)
    assert is_balanced(q, T)


def test_select_query_point_descends_past_six_dimensions(monkeypatch):
    # Above k = 6 the descent moves along the 2k axis directions only.  Subsets
    # of EVEN(6, 7) thinned towards the origin make it walk several steps.
    n, k = 6, 7
    grid = np.stack(CandidateSet.initial(n, k).cols, axis=1)
    calls, scored = [], []

    def counted(runs, q, signs):
        calls.append(q)
        return coverage_counts(runs, q, signs)

    def no_fallback(*args):
        raise AssertionError("every descent start stalled")

    monkeypatch.setattr(cubefix.balanced, "coverage_counts", counted)
    monkeypatch.setattr(cubefix.balanced, "find_balanced_point", no_fallback)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        T = as_set(grid[rng.random(len(grid)) < 0.6 ** (grid.sum(axis=1) / 2)], n)
        before = len(calls)
        q = select_query_point(T)
        scored.append(len(calls) - before)
        assert all(0 <= v <= n for v in q)
        assert is_balanced(q, T)
    assert np.mean(scored) >= 17, scored


def test_validation_errors():
    for k in (1, 2, 3):
        empty = CandidateSet([np.zeros(0, dtype=np.int64)] * k, 4)
        for search in (find_balanced_point, select_query_point):
            with pytest.raises(ValueError):
                search(empty)
    # Points reach a search only through the intake check of CandidateSet.
    for bad in ([], [(1, 2)], [(0, 6)], [(2.9,), (4.0,)]):  # empty, odd, outside, not integers
        with pytest.raises(ValueError):
            as_set(bad, 4)


def test_is_balanced_refuses_a_query_point_that_is_not_integer():
    # 4.9 truncated to 4 is balanced on {0, .., 8}; the upward pyramid at 4.9 itself
    # covers only {6, 8}, 2 of 5 points, so q is not balanced and may not be rounded.
    pts = [(0,), (2,), (4,), (6,), (8,)]
    T = as_set(pts, 8)
    assert is_balanced((4,), T) and not balanced_by_definition((4.9,), pts)
    for q in [(4.9,), (4.0,), np.array([4.0])]:
        with pytest.raises(ValueError):
            is_balanced(q, T)
    with pytest.raises(ValueError):
        is_balanced((4, 4), T)  # wrong dimension


@given(
    st.integers(1, 2).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(1, 4),
            st.sets(
                st.tuples(*[st.integers(0, 4) for _ in range(k)]),
                min_size=1,
                max_size=9,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_property_lex_minimum(args):
    k, half_n, raw = args
    n = 2 * half_n
    T = sorted(tuple(min(2 * c, n) for c in x) for x in raw)
    T = sorted(set(T))
    got = find_balanced_point(as_set(T, n))
    assert got == naive_lex_minimum(T, n, k)
