"""Tests for oracle instances, query accounting, and the grid view."""

import json

import numpy as np
import pytest

from cubefix.geometry import linf_dist
from cubefix.oracles import (
    ContractionOracle,
    GridView,
    InstanceSpec,
    QueryTranscript,
    build_instance,
    grid_side,
    make_affine,
    make_instance,
    sampled_contraction_check,
    strong_to_weak,
)


def test_affine_identity_matrix_fixed_point_origin():
    f = make_affine(np.eye(2), [0.0, 0.0], 0.5)
    assert f.fixed_point == (0.0, 0.0)
    assert f((0.5, 0.5)) == (0.25, 0.25)


def test_affine_constant_map_fixed_point_is_offset():
    f = make_affine(np.zeros((2, 2)), [0.3, 0.7], 0.5)
    assert f.fixed_point == (0.3, 0.7)
    assert f((1.0, 0.0)) == (0.3, 0.7)


def test_affine_swap_matrix_fixed_point_matches_hand_solve():
    # x1 = 0.5 x2 + 0.1 and x2 = 0.5 x1 + 0.3 solve to (1/3, 7/15).
    f = make_affine([[0, 1], [1, 0]], [0.1, 0.3], 0.5)
    assert f.fixed_point == pytest.approx((1 / 3, 7 / 15), abs=1e-12)
    fx = f.probe(f.fixed_point)
    assert linf_dist(fx, f.fixed_point) <= 1e-9


def test_affine_rejects_row_sum_above_one():
    with pytest.raises(ValueError):
        make_affine([[0.7, 0.7], [0.0, 1.0]], [0.0, 0.0], 0.5)


def test_affine_rejects_escape_from_cube():
    with pytest.raises(ValueError):
        make_affine(np.eye(2), [0.9, 0.9], 0.1)


def test_query_counter_tracks_transcript():
    f = make_affine(np.zeros((1, 1)), [0.5], 0.5)
    assert f.queries == 0
    f((0.0,))
    f((1.0,))
    assert f.queries == 2
    assert len(f.transcript) == 2
    assert f.transcript[1] == ((1.0,), (0.5,))
    # probe is unrecorded
    f.probe((0.25,))
    assert f.queries == 2


def test_oracle_rejects_out_of_domain_query():
    f = make_affine(np.zeros((2, 2)), [0.5, 0.5], 0.5)
    with pytest.raises(ValueError):
        f((1.5, 0.0))
    with pytest.raises(ValueError):
        f((0.0,))


def test_grid_side_values():
    assert grid_side(0.5, 0.5) == 64
    assert grid_side(1.0, 1.0) == 16
    assert grid_side(0.25, 0.25) == 256
    # ceil is exact on the binary-float quotient
    assert grid_side(2 ** -8, 2 ** -4) == 16 * 256 * 16


def test_grid_view_constant_map():
    f = make_affine(np.zeros((2, 2)), [0.3, 0.7], 0.5)
    g = GridView(f, 0.5, 0.5)
    assert g.n == 64
    assert g.side == 64.0
    assert not g.routed
    assert g((0.0, 0.0)) == pytest.approx((0.3 * 64, 0.7 * 64), abs=1e-12)
    assert g.fixed_point == pytest.approx((19.2, 44.8), abs=1e-12)
    # queries pass through to the base oracle
    assert f.queries == 1


def test_rescale_preserves_contraction_factor():
    rng = np.random.default_rng(3)
    spec, f = make_instance("affine", 2, 0.5, 0.5, seed=11)
    g = GridView(f, 0.5, 0.5)
    report = sampled_contraction_check(g, pairs=2000, rng=rng)
    assert report["passed"], report["violations"][:1]


def test_grid_view_routes_identity():
    f = make_affine(np.eye(1), [0.0], 0.0)
    g = GridView(f, 0.5, 0.0)
    assert g.routed
    assert g.gamma == 0.25
    assert g.n == 256
    assert g((256.0,)) == (0.75 * 256,)
    # the shrunk map's fixed point is not f's, so the view knows none
    assert g.fixed_point is None


def test_grid_view_routed_constant():
    f = make_affine(np.zeros((2, 2)), [0.4, 0.8], 0.0)
    g = GridView(f, 0.5, 0.0)
    assert g((0.0, 0.0)) == pytest.approx((0.3 * g.n, 0.6 * g.n), abs=1e-12)


def test_grid_view_routed_residual_implication():
    # Any grid point the solver would accept (residual <= 16 / gamma' under
    # the shrunk view) scales back to a point with residual <= eps under f.
    eps = 0.5
    rng = np.random.default_rng(5)
    spec, f = make_instance("affine", 2, 0.0, eps, seed=2)
    g = GridView(f, eps, 0.0)
    checked = 0
    for _ in range(500):
        a = tuple(rng.uniform(0.0, g.n, size=2))
        if linf_dist(g.probe(a), a) <= 16 / g.gamma:
            x = tuple(v / g.n for v in a)
            assert linf_dist(f.probe(x), x) <= eps + 1e-12
            checked += 1
    assert checked > 0


def _mirror(p, factor):
    p = np.asarray(p, dtype=float)

    def fn(x):
        return np.clip(p - factor * (np.asarray(x) - p), 0.0, 1.0)

    return ContractionOracle(fn, len(p), 1.0 - factor, name="mirror")


@pytest.mark.parametrize("eps,gamma", [(0.25, 0.5), (0.5, 0.0), (0.3, 0.1), (0.3, 0.15)])
def test_grid_view_matches_two_step_composition(eps, gamma):
    rng = np.random.default_rng(17)
    oracles = [make_instance("affine", k, max(gamma, 0.05), eps, seed=s)[1]
               for k in (1, 2, 3) for s in range(3)]
    oracles.append(_mirror(rng.uniform(0.0, 1.0, size=2), 1.0 - gamma))
    for f in oracles:
        g = GridView(f, eps, gamma)
        assert g.routed == (gamma < eps / 2)
        # the former stack: shrink by (1 - eps/2) when routed, then conjugate
        # onto [0, n]^k with n from the effective parameters
        if g.routed:
            scale, n = 1.0 - eps / 2, grid_side(eps / 2, eps / 2)
        else:
            scale, n = None, grid_side(gamma, eps)
        assert g.n == n and g.side == float(n) and g.k == f.k

        def two_step(a):
            y = f.probe(tuple(v / n for v in a))
            if scale is not None:
                y = tuple(scale * v for v in y)
            return tuple(n * v for v in y)

        points = [tuple(float(v) for v in rng.integers(0, n + 1, size=f.k))
                  for _ in range(20)]
        points += [tuple(rng.uniform(0.0, n, size=f.k)) for _ in range(20)]
        for a in points:
            before = f.queries
            assert g.probe(a) == two_step(a)
            assert f.queries == before
            assert g(a) == two_step(a)
            assert f.queries == before + 1
            assert f.transcript[before][0] == tuple(v / n for v in a)
        before = f.queries
        with pytest.raises(ValueError, match=r"outside \[0, 1\.0\]"):
            g((n + 1.0,) * f.k)
        assert f.queries == before


def test_strong_to_weak_values():
    assert strong_to_weak(0.1, 0.5) == (0.05, 0.5)
    assert strong_to_weak(1.0, 0.25) == (0.25, 0.25)
    with pytest.raises(ValueError):
        strong_to_weak(0.1, 0.0)


def test_sampled_contraction_check_flags_expansion():
    # A clamped doubling map is expansive on most pairs but declares gamma=0.5.
    f = ContractionOracle(lambda x: (min(1.0, 2.0 * x[0]),), 1, 0.5)
    report = sampled_contraction_check(f, pairs=200, rng=np.random.default_rng(0))
    assert not report["passed"]
    assert report["worst_excess"] > 0


def test_instance_spec_json_round_trip():
    spec, _ = make_instance("affine", 2, 0.5, 0.25, seed=7)
    text = spec.dumps()
    obj = json.loads(text)
    assert set(obj) == {"family", "k", "gamma", "epsilon", "seed", "params"}
    back = InstanceSpec.loads(text)
    assert back == spec
    # rebuilding from the round-tripped spec gives the same map
    f1 = build_instance(spec)
    f2 = build_instance(back)
    x = (0.33, 0.77)
    assert f1.probe(x) == f2.probe(x)


@pytest.mark.parametrize("family,k,gamma", [
    ("affine", 1, 0.5), ("affine", 2, 0.25), ("affine", 3, 0.5),
    ("constant", 2, 0.5), ("reflection", 1, 2 ** -8),
    ("identity", 2, 0.0), ("diamond", 2, 0.0),
])
def test_every_family_passes_contraction_check(family, k, gamma):
    spec, f = make_instance(family, k, gamma, 0.25, seed=4)
    report = sampled_contraction_check(f, pairs=1500, rng=np.random.default_rng(9))
    assert report["passed"], report["violations"][:1]


def test_affine_fixed_point_is_fixed_for_random_instances():
    for seed in range(10):
        spec, f = make_instance("affine", 3, 0.5, 0.25, seed=seed)
        assert f.fixed_point is not None
        assert linf_dist(f.probe(f.fixed_point), f.fixed_point) <= 1e-9


def test_reflection_family_fixed_point_at_centre():
    spec, f = make_instance("reflection", 1, 2 ** -8, 2 ** -4, seed=0)
    assert f.fixed_point == pytest.approx((0.5,), abs=1e-12)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_instance("moebius", 2, 0.5, 0.5, seed=0)


def test_transcript_rebuilds_pairs_exactly():
    t = QueryTranscript()
    assert len(t) == 0 and t.entries == [] and t[0:5] == []
    pairs = [((0.1, 1 / 3), (5e-324, 1.0)), ((0.0, 0.7), (0.25, 2 ** -40)),
             ((1.0, 0.5), (0.5, 0.5))]
    for q, a in pairs:
        t.append(q, a)
    assert len(t) == 3
    assert t.entries == pairs and list(t) == pairs
    assert t[0] == pairs[0] and t[-1] == pairs[-1] and t[1:] == pairs[1:]
    with pytest.raises(IndexError):
        t[3]
    for q, a in [((0.0,), (0.0,)), ((0.0, 0.0), (0.0,))]:
        with pytest.raises(ValueError):
            t.append(q, a)
    assert len(t) == 3
