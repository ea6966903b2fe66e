"""Tests for the exact cube geometry: norms, pyramids, even grid, Around balls."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefix.balanced import all_sign_vectors
from cubefix.geometry import (
    around_contains,
    even_count,
    even_grid,
    even_points_near,
    in_pyramid_union,
    linf_dist,
    sign_vector,
)
from pyramids import PyramidSpec, enumerate_even, in_pyramid


def test_linf_dist_basic_values():
    assert linf_dist((0, 0), (0, 0)) == 0
    assert linf_dist((1, 5), (4, 3)) == 3
    assert linf_dist((0.5, 0.5), (1, 1)) == 0.5


def test_linf_dist_symmetric_and_zero_iff_equal():
    assert linf_dist((1, 5), (4, 3)) == linf_dist((4, 3), (1, 5))
    assert linf_dist((2.5, 7.0), (2.5, 7.0)) == 0.0
    assert linf_dist((2.5, 7.0), (2.5, 7.1)) > 0.0


def test_linf_dist_dimension_mismatch():
    with pytest.raises(ValueError):
        linf_dist((0, 0), (0, 0, 0))


def test_in_pyramid_examples():
    # y - apex = (3, 0): coordinate 0 dominates with sign +1.
    assert in_pyramid((8, 5), PyramidSpec((5, 5), 0, +1)) is True
    # y - apex = (0, 3): coordinate 0 contributes 0, not the max 3.
    assert in_pyramid((5, 8), PyramidSpec((5, 5), 0, +1)) is False
    assert in_pyramid((5, 8), PyramidSpec((5, 5), 1, +1)) is True


def test_apex_in_every_pyramid():
    apex = (5, 5, 5)
    for coord in range(3):
        for sign in (-1, +1):
            assert in_pyramid(apex, PyramidSpec(apex, coord, sign))


def test_in_pyramid_rejects_bad_sign():
    with pytest.raises(ValueError):
        in_pyramid((0, 0), PyramidSpec((0, 0), 0, 2))


def test_enumerate_even_small_grids():
    pts = list(enumerate_even(4, 2))
    assert pts == [
        (0, 0), (0, 2), (0, 4),
        (2, 0), (2, 2), (2, 4),
        (4, 0), (4, 2), (4, 4),
    ]
    assert list(enumerate_even(1, 3)) == [(0, 0, 0)]


def test_even_count_matches_formula():
    assert even_count(64, 2) == 33 ** 2 == 1089
    assert even_count(4, 2) == 9
    assert even_count(1, 3) == 1
    for n in range(0, 11):
        for k in range(1, 4):
            assert even_count(n, k) == (n // 2 + 1) ** k


def test_enumerate_even_strictly_lexicographic():
    for n, k in [(6, 2), (8, 1), (4, 3)]:
        pts = list(enumerate_even(n, k))
        assert len(pts) == (n // 2 + 1) ** k
        for a, b in zip(pts, pts[1:]):
            assert a < b


def test_even_grid_matches_enumeration():
    for n, k in [(6, 2), (8, 1), (4, 3)]:
        g = even_grid(n, k)
        assert len(g) == k
        assert all(c.dtype == np.int16 and c.flags.c_contiguous for c in g)
        assert [tuple(int(v) for v in row) for row in zip(*g)] == list(enumerate_even(n, k))


def test_around_contains_examples():
    assert around_contains((3, 3), (4, 2)) is True
    assert around_contains((3, 3), (5, 3)) is False
    assert around_contains((2.5, 0.5), (2.5, 0.5)) is True


def test_around_even_witness_exhaustive_small():
    # Every grid point has an all-even point within distance 1: round each
    # coordinate to the nearest even integer.
    for n, k in [(6, 2), (5, 2), (8, 1)]:
        for x in itertools.product(range(n + 1), repeat=k):
            near = even_points_near(x, n, k)
            assert len(near) >= 1
            for y in near:
                assert around_contains(x, y)
            witness = tuple(min(n, 2 * round(c / 2)) for c in x)
            assert list(witness) in [list(r) for r in near]


def test_sign_vector_examples():
    assert sign_vector((0, 0, 0), (3.2, -0.5, 0)) == (1, -1, 0)
    assert sign_vector((0.25, 0.5), (0.25, 0.5)) == (0, 0)
    assert sign_vector((0, 0), (1e-12, -2)) == (1, -1)


def test_all_sign_vectors_shape():
    vs = all_sign_vectors(3)
    assert vs.shape == (8, 3)
    assert sorted(map(tuple, vs)) == sorted(itertools.product((-1, 1), repeat=3))


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(-20, 20), min_size=k, max_size=k),
            st.lists(st.integers(-20, 20), min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=300)
def test_dominating_coordinate_always_exists(pair):
    y, apex = pair
    hits = [
        (i, phi)
        for i in range(len(y))
        for phi in (-1, +1)
        if in_pyramid(y, PyramidSpec(apex, i, phi))
    ]
    assert hits, f"no pyramid at apex {apex} contains {y}"


@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(-10, 10), min_size=k, max_size=k),
            st.lists(st.integers(-10, 10), min_size=k, max_size=k),
            st.lists(st.integers(-10, 10), min_size=k, max_size=k),
            st.integers(0, k - 1),
            st.sampled_from((-1, +1)),
        )
    )
)
@settings(max_examples=300)
def test_in_pyramid_translation_invariant(args):
    y, apex, shift, coord, phi = args
    before = in_pyramid(y, PyramidSpec(apex, coord, phi))
    y2 = tuple(a + b for a, b in zip(y, shift))
    apex2 = tuple(a + b for a, b in zip(apex, shift))
    after = in_pyramid(y2, PyramidSpec(apex2, coord, phi))
    assert before == after


def test_in_pyramid_union_matches_per_pyramid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        y = tuple(int(v) for v in rng.integers(-8, 9, size=k))
        apex = tuple(int(v) for v in rng.integers(-8, 9, size=k))
        s = tuple(int(v) for v in rng.integers(-1, 2, size=k))
        expected = any(
            s[i] != 0 and in_pyramid(y, PyramidSpec(apex, i, s[i]))
            for i in range(k)
        )
        assert in_pyramid_union(y, apex, s) == expected


def test_even_points_near_respects_bounds():
    near = even_points_near((0.4, 63.8), 64, 2)
    for y in near:
        assert all(0 <= int(c) <= 64 and int(c) % 2 == 0 for c in y)
        assert around_contains((0.4, 63.8), y)
