"""Tests for balanced-point search, checked against a literal brute-force verifier.

The verifier below recomputes pyramid-union coverage straight from the
definition (max + min of signed offsets per point), independently of the
vectorised implementation under test.  ``reference_coverage_counts`` is the
plain one-pass-per-sign kernel, kept as a second reference for sets too large
for the verifier.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubefix.balanced
from cubefix.balanced import (
    _BLOCK_ROWS,
    _k2_point,
    all_sign_vectors,
    coverage_counts,
    find_balanced_point,
    is_balanced,
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


def balanced_by_definition(q, T) -> bool:
    m = len(T)
    for s in itertools.product((-1, 1), repeat=len(q)):
        count = sum(covered_by_definition(x, q, s) for x in T)
        if 2 * count < m:
            return False
    return True


def naive_lex_minimum(T, n, k):
    for q in itertools.product(range(n + 1), repeat=k):
        if balanced_by_definition(q, T):
            return q
    return None


def test_is_balanced_examples_k1():
    T = [(0,), (2,), (4,), (6,), (8,)]
    assert is_balanced((4,), T) is True
    assert is_balanced((0,), T) is False
    assert is_balanced((2,), [(2,)]) is True


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
        assert is_balanced(q, T) == balanced_by_definition(q, T)


def test_is_balanced_query_far_outside_the_grid():
    # The differences x - q overflow int16 although n alone fits it: the
    # downward pyramid at -3000 covers no point, so q is not balanced.
    T = [(0,), (30000,)]
    for q in [(-3000,), (-40000,), (70000,)]:
        assert is_balanced(q, T) is False
        assert is_balanced(q, CandidateSet([[0, 16000]], 16000)) is False  # int16 columns
        assert balanced_by_definition(q, T) is False
    assert is_balanced((15000,), T) is True


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
                assert list(coverage_counts(cols, q, signs)) == want
                assert list(reference_coverage_counts(cols, q, signs)) == want


def test_coverage_counts_matches_reference_across_blocks():
    rng = np.random.default_rng(6)
    for k, n in [(3, 256), (4, 64), (1, 40_000)]:
        signs = all_sign_vectors(k)
        pts = rng.integers(0, n // 2 + 1, size=(2 * _BLOCK_ROWS + 123, k)) * 2
        cols = grid_columns(list(pts.T), n)
        for q in ([0] * k, [n] * k, [int(v) for v in rng.integers(0, n + 1, size=k)]):
            want = reference_coverage_counts(cols, q, signs)
            assert list(coverage_counts(cols, q, signs)) == list(want)


def test_coverage_counts_needs_the_full_sign_table():
    for k in (1, 3):
        signs = all_sign_vectors(k)
        cols = grid_columns(list(np.zeros((3, k), dtype=np.int64).T), 4)
        for bad in (signs[1:2], signs[:-1], signs[::-1], np.concatenate([signs, signs])):
            with pytest.raises(ValueError):
                coverage_counts(cols, [2] * k, bad)


def test_find_balanced_full_even_line():
    assert find_balanced_point([(0,), (2,), (4,), (6,), (8,)], 8, 1) == (4,)
    # even count: both weak medians qualify; lexicographic rule takes the lower
    assert find_balanced_point([(0,), (2,), (4,), (6,)], 6, 1) == (2,)


def test_find_balanced_singleton_is_at_most_the_point():
    for x in [(0, 0), (2, 4), (4, 2), (4, 4)]:
        q = find_balanced_point([x], 4, 2)
        assert balanced_by_definition(q, [x])
        assert q <= x
    assert balanced_by_definition((2, 4), [(2, 4)])


def test_find_balanced_two_corners():
    T = [(0, 0), (4, 4)]
    q = find_balanced_point(T, 4, 2)
    assert balanced_by_definition(q, T)
    assert q == naive_lex_minimum(T, 4, 2)


def test_exhaustive_lex_minimum_small_grids():
    # Every non-empty subset of the even grid, cross-checked against the
    # naive lexicographic scan.
    for n, k in [(2, 2), (4, 1), (6, 1)]:
        grid = list(enumerate_even(n, k))
        for mask in range(1, 2 ** len(grid)):
            T = [grid[i] for i in range(len(grid)) if mask >> i & 1]
            got = find_balanced_point(T, n, k)
            assert got == naive_lex_minimum(T, n, k)


def test_lex_minimum_random_k2():
    rng = np.random.default_rng(2)
    grid = list(enumerate_even(8, 2))
    for _ in range(150):
        size = int(rng.integers(1, 12))
        idx = rng.choice(len(grid), size=size, replace=False)
        T = sorted(grid[i] for i in idx)
        got = find_balanced_point(T, 8, 2)
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
            got = find_balanced_point(T, n, k)
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
            q = select_query_point(T, n, k)
            assert all(0 <= v <= n for v in q)
            assert balanced_by_definition(q, T)


def test_select_query_point_agrees_with_exact_for_k_le_2():
    rng = np.random.default_rng(5)
    grid = list(enumerate_even(10, 2))
    for _ in range(50):
        size = int(rng.integers(1, 15))
        idx = rng.choice(len(grid), size=size, replace=False)
        T = [grid[i] for i in idx]
        assert select_query_point(T, 10, 2) == find_balanced_point(T, 10, 2)


def _shrunk_grids():
    """EVEN(40, 3) and EVEN(16, 4) after one to three eliminations at their select points."""
    rng = np.random.default_rng(7)
    for n, k in [(40, 3), (16, 4)]:
        T = CandidateSet.initial(n, k)
        for _ in range(3):
            a = select_query_point(T, n, k)
            s = tuple(int(v) for v in rng.choice((-1, 1), size=k))
            T = eliminate(T, a, s)
            if len(T) == 0:
                break
            yield T, n, k


def test_select_query_point_same_trajectory_as_reference_kernel(monkeypatch):
    cases = list(_shrunk_grids())
    assert len(cases) >= 4
    want = [select_query_point(T, n, k) for T, n, k in cases]
    monkeypatch.setattr(cubefix.balanced, "coverage_counts", reference_coverage_counts)
    assert [select_query_point(T, n, k) for T, n, k in cases] == want


def test_select_query_point_falls_back_to_exact_search(monkeypatch):
    monkeypatch.setattr(cubefix.balanced, "_descend", lambda *args, **kwargs: None)
    rng = np.random.default_rng(8)
    grid = list(enumerate_even(10, 3))
    for _ in range(5):
        idx = rng.choice(len(grid), size=int(rng.integers(1, 30)), replace=False)
        T = [grid[i] for i in idx]
        q = select_query_point(T, 10, 3)
        assert q == find_balanced_point(T, 10, 3)
        assert balanced_by_definition(q, T)


def test_validation_errors():
    with pytest.raises(ValueError):
        find_balanced_point([], 4, 2)
    with pytest.raises(ValueError):
        find_balanced_point([(1, 2)], 4, 2)  # odd coordinate
    with pytest.raises(ValueError):
        find_balanced_point([(0, 6)], 4, 2)  # outside [0, n]
    with pytest.raises(ValueError):
        find_balanced_point([(2.9,), (4.0,)], 4, 1)  # not integers


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
    got = find_balanced_point(T, n, k)
    assert got == naive_lex_minimum(T, n, k)
