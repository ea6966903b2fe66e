"""Tests for the elimination solver, its invariants, and the Picard baseline."""

import math

import numpy as np
import pytest

from cubefix.errors import InstanceTooLargeError
from cubefix.geometry import (
    around_contains,
    even_grid,
    even_points_near,
    linf_dist,
)
from cubefix.oracles import (
    ContractionOracle,
    GridView,
    make_affine,
    make_instance,
    strong_to_weak,
)
from cubefix.solver import (
    CandidateSet,
    eliminate,
    picard_baseline,
    query_bound,
    solve,
    solve_strong,
    solve_unit_cube,
)


def grid_oracle(fn, k, gamma, n, fixed_point=None):
    return ContractionOracle(fn, k, gamma, side=float(n), fixed_point=fixed_point)


def test_query_bound_matches_ceil_log2():
    for n in [2, 4, 6, 8, 10, 64, 63, 256]:
        for k in [1, 2, 3]:
            m = (n // 2 + 1) ** k
            assert query_bound(n, k) == math.ceil(math.log2(m)) + 1


def test_candidate_set_initial_and_cap():
    T = CandidateSet.initial(8, 2)
    assert len(T) == 25
    assert T.k == 2
    with pytest.raises(InstanceTooLargeError):
        CandidateSet.initial(10_000, 3, cap=10 ** 7)


def test_contains_points_mask():
    T = CandidateSet.initial(8, 2)
    mask = T.contains_points([(0, 0), (1, 0), (8, 8), (10, 0), (-2, 0)])
    assert list(mask) == [True, False, True, False, False]
    # (n + 1)^k beyond int64: no flat index exists, and none is needed
    huge = CandidateSet(cols=np.zeros((3, 1), dtype=np.int64), n=2 ** 21)
    mask = huge.contains_points([(0, 0, 0), (0, 0, 2), (2 ** 21, 0, 0)])
    assert list(mask) == [True, False, False]


def test_eliminate_one_dimensional_example():
    T = CandidateSet.initial(8, 1)
    survivors = eliminate(T, (4,), (1,))
    assert [tuple(p) for p in survivors.points] == [(6,), (8,)]


def test_eliminate_keeps_contained_set():
    # Points already deep inside the pyramid union survive unchanged.
    T = CandidateSet(cols=[[8, 8, 8], [0, 2, 4]], n=8)
    survivors = eliminate(T, (2, 2), (1, 0))
    assert [tuple(p) for p in survivors.points] == [(8, 0), (8, 2), (8, 4)]


def test_eliminate_half_diamond_shape():
    # One nonzero sign coordinate keeps exactly the points whose dominating
    # offset from b = a + 2s is along +x.
    T = CandidateSet.initial(8, 2)
    survivors = eliminate(T, (2, 4), (1, 0))
    got = {tuple(p) for p in survivors.points}
    b = (4, 4)
    expected = {
        tuple(p) for p in T.points
        if p[0] - b[0] == max(abs(p[0] - b[0]), abs(p[1] - b[1]))
    }
    assert got == expected
    assert (8, 4) in got and (4, 4) in got
    assert (0, 4) not in got and (4, 8) not in got


def test_eliminate_rejects_zero_and_bad_signs():
    T = CandidateSet.initial(8, 2)
    with pytest.raises(ValueError):
        eliminate(T, (4, 4), (0, 0))
    with pytest.raises(ValueError):
        eliminate(T, (4, 4), (2, 0))


def test_solve_constant_grid_map():
    n, gamma = 64, 0.5
    c = (60.0, 2.0)
    g = grid_oracle(lambda x: c, 2, gamma, n, fixed_point=c)
    res = solve(g, gamma)
    assert res.outcome == "fixed-point-found"
    assert res.residual <= 16 / gamma
    assert linf_dist(res.answer, c) <= 16 / gamma
    assert res.queries <= query_bound(n, 2)


def test_solve_affine_grid_instance():
    spec, f = make_instance("affine", 2, 0.5, 0.5, seed=1)
    g = GridView(f, 0.5, 0.5)
    n = g.n
    assert n == 64
    res = solve(g, 0.5)
    assert res.outcome == "fixed-point-found"
    assert res.residual <= 32.0
    x = tuple(v / n for v in res.answer)
    assert linf_dist(f.probe(x), x) <= 0.5


def test_solve_k1_query_count_within_bound():
    for seed in range(5):
        spec, f = make_instance("affine", 1, 0.5, 0.25, seed=seed)
        g = GridView(f, 0.25, 0.5)
        n = g.n
        res = solve(g, 0.5)
        assert res.outcome == "fixed-point-found"
        assert res.queries <= query_bound(n, 1) == math.ceil(math.log2(n // 2 + 1)) + 1


def test_solve_round_log_shape():
    spec, f = make_instance("affine", 2, 0.5, 0.5, seed=3)
    g = GridView(f, 0.5, 0.5)
    res = solve(g, 0.5)
    lines = res.round_log_lines()
    assert len(lines) == res.queries == len(res.rounds)
    for line in lines:
        assert set(line) == {"t", "a_t", "s", "residual", "cand_size", "queries_so_far"}
    # terminal round reports a zero sign vector and the set it queried
    assert lines[-1]["s"] == [0, 0]
    assert [line["t"] for line in lines] == list(range(1, res.queries + 1))


def test_solve_halving_and_containment_every_round():
    for seed in range(8):
        spec, f = make_instance("affine", 2, 0.5, 0.5, seed=seed)
        g = GridView(f, 0.5, 0.5)
        n = g.n
        fix = g.fixed_point
        seen = []

        def check(rec, before, after):
            if after is not None:
                assert 2 * len(after) <= len(before)
                mask = after.contains_points(even_points_near(fix, n, 2))
                assert mask.all()
            seen.append(rec.t)

        res = solve(g, 0.5, on_round=check)
        assert res.outcome == "fixed-point-found"
        assert seen == list(range(1, res.queries + 1))


def test_residual_small_near_fixed_point():
    # Any y within distance 1 of the fixed point has grid residual <= 2.
    rng = np.random.default_rng(6)
    spec, f = make_instance("affine", 2, 0.5, 0.5, seed=9)
    g = GridView(f, 0.5, 0.5)
    n = g.n
    fix = np.asarray(g.fixed_point)
    for _ in range(200):
        y = np.clip(fix + rng.uniform(-1, 1, size=2), 0, n)
        assert around_contains(fix, y, n=n)
        assert linf_dist(g.probe(tuple(y)), tuple(y)) <= 2.0 + 1e-12


def test_solve_unit_cube_scaled_identity():
    gamma = 0.5
    f = make_affine(np.eye(2), [0.0, 0.0], gamma)
    res = solve_unit_cube(f, 0.25, gamma)
    assert res.outcome == "fixed-point-found"
    assert linf_dist(f.probe(res.answer), res.answer) <= 0.25
    assert res.routed is False


def test_solve_unit_cube_random_affine_residuals():
    for seed in range(6):
        spec, f = make_instance("affine", 2, 0.5, 0.25, seed=seed)
        res = solve_unit_cube(f, 0.25, 0.5)
        assert res.outcome == "fixed-point-found"
        assert linf_dist(f.probe(res.answer), res.answer) <= 0.25
        assert res.queries <= res.query_bound


def test_solve_unit_cube_routes_nonexpansive():
    spec, f = make_instance("diamond", 2, 0.0, 0.5, seed=2)
    res = solve_unit_cube(f, 0.5, 0.0)
    assert res.routed is True
    assert res.outcome == "fixed-point-found"
    assert linf_dist(f.probe(res.answer), res.answer) <= 0.5


def test_solve_unit_cube_answer_was_queried():
    spec, f = make_instance("affine", 2, 0.5, 0.25, seed=4)
    res = solve_unit_cube(f, 0.25, 0.5)
    queried = [q for q, _ in f.transcript.entries]
    assert res.answer in queried
    assert queried[-1] == res.answer


def test_solve_strong_close_to_true_fixed_point():
    eps = 0.25
    for seed in range(5):
        spec, f = make_instance("affine", 2, 0.5, eps, seed=seed)
        res = solve_strong(f, eps, 0.5)
        assert res.outcome == "fixed-point-found"
        assert linf_dist(res.answer, f.fixed_point) <= eps
        weak_eps, _ = strong_to_weak(eps, 0.5)
        assert linf_dist(f.probe(res.answer), res.answer) <= weak_eps


def test_solve_violation_on_empty_candidates():
    # An adversarial grid map claiming a contraction it does not have: answers
    # always point far away from the query, so no candidate survives long.
    n = 256

    def liar(x):
        return tuple(0.0 if v > n / 2 else float(n) for v in x)

    g = grid_oracle(liar, 1, 0.9, n)
    res = solve(g, 0.9)
    assert res.outcome == "violation-found"
    assert res.violation["reason"] in {"empty-candidate-set",
                                       "zero-sign-with-large-residual"}
    assert res.answer is None


def test_picard_constant_map_two_queries():
    f = make_affine(np.zeros((2, 2)), [0.3, 0.7], 0.5)
    res = picard_baseline(f, 0.25)
    assert res.outcome == "fixed-point-found"
    assert res.queries == 2


def test_picard_geometric_decay_rate():
    gamma, eps = 0.25, 1e-3
    f = make_affine(np.eye(1), [0.0], gamma)
    res = picard_baseline(f, eps, start=(1.0,))
    assert res.outcome == "fixed-point-found"
    # residual after m steps from 1 is gamma * (1 - gamma)^m
    expected = next(m for m in range(1, 500)
                    if gamma * (1 - gamma) ** m <= eps)
    assert abs(res.queries - (expected + 1)) <= 1


def test_picard_budget_exhaustion_reports_failure():
    f = make_affine(np.eye(1), [0.0], 2 ** -10)
    res = picard_baseline(f, 1e-9, start=(1.0,), max_queries=5)
    assert res.outcome == "failure"
    assert res.queries == 5
    assert res.residual > 1e-9


def test_crossover_picard_needs_many_more_queries():
    # Tiny contraction margin: value iteration pays ~1/gamma, the elimination
    # solver only pays the log-sized grid bound.  The routed grid at these
    # parameters has 8193^2 candidates, above the default cap.
    gamma, eps = 2 ** -8, 2 ** -4
    spec, f = make_instance("reflection", 2, gamma, eps, seed=0)
    picard = picard_baseline(f, eps, start=(1.0, 1.0))
    spec2, f2 = make_instance("reflection", 2, gamma, eps, seed=0)
    fast = solve_unit_cube(f2, eps, gamma, cap=70_000_000)
    assert picard.queries >= 2 ** 8 or picard.outcome == "failure"
    assert fast.outcome == "fixed-point-found"
    assert fast.queries <= fast.query_bound


def test_solve_rejects_bad_gamma():
    g = grid_oracle(lambda x: x, 1, 0.5, 8)
    with pytest.raises(ValueError):
        solve(g, 0.0)
    with pytest.raises(ValueError):
        solve_unit_cube(make_affine(np.eye(1), [0.0], 0.5), 0.0, 0.5)
