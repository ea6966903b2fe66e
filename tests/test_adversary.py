"""Tests for the diamond-domain non-expansive maps and the strip family."""

import math

import numpy as np
import pytest

from cubefix.adversary import (
    DiamondMap,
    check_diagonal_nonexpansive,
    eval_diamond_map,
    extend_to_square,
    project_to_diamond,
    strip_family,
)
from cubefix.geometry import linf_dist


def in_diamond(p, slack=1e-12):
    return abs(p[0] - 0.5) + abs(p[1] - 0.5) <= 0.5 + slack


def random_diamond_points(rng, count):
    pts = []
    while len(pts) < count:
        p = rng.uniform(0, 1, size=2)
        if in_diamond(p):
            pts.append((float(p[0]), float(p[1])))
    return pts


def test_project_interior_points_unchanged():
    assert project_to_diamond((0.5, 0.5)) == (0.5, 0.5)
    assert project_to_diamond((0.5, 0.15)) == (0.5, 0.15)


def test_project_corners_hit_side_midpoints():
    assert project_to_diamond((0.0, 0.0)) == pytest.approx((0.25, 0.25))
    assert project_to_diamond((1.0, 1.0)) == pytest.approx((0.75, 0.75))
    assert project_to_diamond((1.0, 0.0)) == pytest.approx((0.75, 0.25))
    assert project_to_diamond((0.0, 1.0)) == pytest.approx((0.25, 0.75))


def test_project_lands_in_diamond_and_is_nonexpansive():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        p = tuple(rng.uniform(0, 1, size=2))
        q = tuple(rng.uniform(0, 1, size=2))
        pp, qq = project_to_diamond(p), project_to_diamond(q)
        assert in_diamond(pp) and in_diamond(qq)
        assert linf_dist(pp, qq) <= linf_dist(p, q) + 1e-12


def test_anchor_is_fixed_exactly():
    for side in ("sw", "ne"):
        m = DiamondMap(0.05, side, 0.3)
        assert eval_diamond_map(m, m.anchor) == m.anchor


def test_far_end_of_axis_line_moves_toward_anchor():
    m = DiamondMap(0.05, "sw", 0.3)
    s = m.anchor
    # walk along the 45-degree line through s to its other end on the NE side
    c = (1.5 - s[0] - s[1]) / 2.0
    t = (s[0] + c, s[1] + c)
    ft = eval_diamond_map(m, t)
    move = (ft[0] - t[0], ft[1] - t[1])
    assert math.hypot(*move) == pytest.approx(m.delta / math.sqrt(2), abs=1e-12)
    # the move points along the line, toward s
    assert move[0] == pytest.approx(move[1], abs=1e-12)
    assert move[0] < 0


def test_band_boundary_agrees_with_projection():
    # A point at Euclidean distance exactly delta from the axis line maps to
    # its projection onto that line under both branch readings.
    m = DiamondMap(0.05, "sw", 0.35)
    s = m.anchor
    on_line = (s[0] + 0.1, s[1] + 0.1)
    h = m.band / 2.0  # band is measured in y - x units
    for sgn in (+1, -1):
        p = (on_line[0] - sgn * h, on_line[1] + sgn * h)
        assert in_diamond(p)
        got = eval_diamond_map(m, p)
        assert got == pytest.approx(on_line, abs=1e-12)


def test_map_is_continuous_across_band_boundaries():
    m = DiamondMap(0.06, "sw", 0.4)
    s = m.anchor
    rng = np.random.default_rng(1)
    eta = 1e-9
    for _ in range(200):
        along = float(rng.uniform(0.02, 0.25))
        on_line = (s[0] + along, s[1] + along)
        for sgn in (+1, -1):
            h = m.band / 2.0
            p = (on_line[0] - sgn * h, on_line[1] + sgn * h)
            if not in_diamond(p, slack=-eta):
                continue
            inner = (p[0] + sgn * eta, p[1] - sgn * eta)
            outer = (p[0] - sgn * eta, p[1] + sgn * eta)
            gap = linf_dist(eval_diamond_map(m, inner), eval_diamond_map(m, outer))
            assert gap <= 5 * eta


def test_map_sends_diamond_into_diamond():
    rng = np.random.default_rng(2)
    for side in ("sw", "ne"):
        m = DiamondMap(0.08, side, 0.5)
        for p in random_diamond_points(rng, 500):
            assert in_diamond(eval_diamond_map(m, p))


def test_fixed_point_is_unique():
    m = DiamondMap(0.05, "sw", 0.3)
    s = m.anchor
    assert linf_dist(eval_diamond_map(m, s), s) == 0.0
    rng = np.random.default_rng(3)
    for p in random_diamond_points(rng, 10_000):
        if p == s:
            continue
        residual = linf_dist(eval_diamond_map(m, p), p)
        assert residual > m.delta * 1e-6


def test_eval_rejects_points_outside_diamond():
    m = DiamondMap(0.05, "sw", 0.3)
    with pytest.raises(ValueError):
        eval_diamond_map(m, (0.0, 0.0))


def test_diamond_map_parameter_validation():
    with pytest.raises(ValueError):
        DiamondMap(0.6, "sw", 0.3)  # delta must stay below 1/2
    with pytest.raises(ValueError):
        DiamondMap(0.05, "sw", 0.01)  # anchor too close to a vertex
    with pytest.raises(ValueError):
        DiamondMap(0.05, "up", 0.3)


def test_extension_fixes_anchor_and_covers_square():
    m = DiamondMap(0.05, "ne", 0.4)
    g = extend_to_square(m)
    assert g.fixed_point == m.anchor
    assert linf_dist(g.probe(m.anchor), m.anchor) == 0.0
    assert in_diamond(g.probe((1.0, 1.0)))
    assert in_diamond(g.probe((0.0, 0.7)))


def test_diagonal_check_identity_ratio_one():
    report = check_diagonal_nonexpansive(lambda p: p, samples=500)
    assert report["passed"] is True
    assert report["max_ratio"] == 1.0


def test_diagonal_check_diamond_maps_pass():
    rng = np.random.default_rng(4)
    for side, arc in [("sw", 0.25), ("ne", 0.55), ("sw", 0.5)]:
        m = DiamondMap(0.05, side, arc)
        report = check_diagonal_nonexpansive(
            lambda p, m=m: eval_diamond_map(m, p),
            samples=3000, rng=np.random.default_rng(5), domain="diamond")
        assert report["passed"], report["violations"][:1]
        g = extend_to_square(m)
        report2 = check_diagonal_nonexpansive(g.probe, samples=3000,
                                              rng=np.random.default_rng(6))
        assert report2["passed"], report2["violations"][:1]


def test_diagonal_check_catches_expansion():
    def doubling(p):
        return (min(1.0, 2 * p[0]), min(1.0, 2 * p[1]))

    report = check_diagonal_nonexpansive(doubling, samples=500,
                                         rng=np.random.default_rng(7))
    assert report["passed"] is False
    assert report["max_ratio"] > 1.0
    assert report["violations"]


def test_full_nonexpansive_property_on_arbitrary_pairs():
    # The diagonal-pair criterion implies plain non-expansiveness; check the
    # consequence directly on random (not necessarily diagonal) pairs.
    m = DiamondMap(0.07, "sw", 0.45)
    g = extend_to_square(m)
    rng = np.random.default_rng(8)
    for _ in range(5000):
        p = tuple(rng.uniform(0, 1, size=2))
        q = tuple(rng.uniform(0, 1, size=2))
        assert linf_dist(g.probe(p), g.probe(q)) <= linf_dist(p, q) + 1e-12


def test_strip_family_size_and_anchor_separation():
    fam = strip_family(4)
    assert len(fam.maps) == 8
    for x in range(1, 5):
        ms, mt = fam.pair(x)
        assert linf_dist(ms.anchor, mt.anchor) > 0.5


def test_strip_family_every_map_nonexpansive():
    fam = strip_family(4)
    for m in fam.maps:
        report = check_diagonal_nonexpansive(
            lambda p, m=m: eval_diamond_map(m, p),
            samples=800, rng=np.random.default_rng(9), domain="diamond")
        assert report["passed"]


def test_strip_family_delta_bound_enforced():
    limit = 1.0 / (2 * math.sqrt(2) * 4)
    with pytest.raises(ValueError):
        strip_family(4, delta=limit * 1.01)
    fam = strip_family(4, delta=limit * 0.5)
    assert fam.delta == pytest.approx(limit * 0.5)
    with pytest.raises(ValueError):
        strip_family(3)  # must be a power of two


def test_out_of_strip_queries_cannot_distinguish_the_pair():
    fam = strip_family(8)
    rng = np.random.default_rng(10)
    points = random_diamond_points(rng, 400)
    for x in (1, 4, 8):
        ms, mt = fam.pair(x)
        lo, hi = fam.strip_v_range(x)
        outside = [p for p in points if not lo <= p[1] - p[0] <= hi]
        assert len(outside) > 100
        for p in outside:
            # bitwise agreement: both maps apply the same off-strip rule
            assert eval_diamond_map(ms, p) == eval_diamond_map(mt, p)
        inside = [p for p in points if lo < p[1] - p[0] < hi]
        # the strip itself does distinguish them somewhere
        assert any(
            eval_diamond_map(ms, p) != eval_diamond_map(mt, p) for p in inside
        )
