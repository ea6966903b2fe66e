"""Tests for violation scanning, consistent extension, and total search."""

import itertools

import numpy as np
import pytest

from cubefix.errors import InternalInvariantError
from cubefix.geometry import linf_dist
from cubefix.oracles import (
    ContractionOracle,
    QueryTranscript,
    make_affine,
    make_instance,
    sampled_contraction_check,
)
from cubefix.solver import solve_unit_cube
from cubefix.total import extend_consistent, scan_violations, solve_total


def violation_exists_by_definition(entries, gamma):
    for (q1, a1), (q2, a2) in itertools.combinations(entries, 2):
        if linf_dist(a1, a2) > (1 - gamma) * linf_dist(q1, q2):
            return True
    return False


def test_scan_identity_pair_violates():
    tr = [((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 1.0))]
    cert = scan_violations(tr, 0.5)
    assert cert is not None
    assert (cert.t1, cert.t2) == (1, 2)
    assert cert.lhs == 1.0
    assert cert.rhs == 0.5
    assert cert.q1 == (0.0, 0.0) and cert.q2 == (1.0, 1.0)


def test_scan_true_contraction_transcript_clean():
    spec, f = make_instance("affine", 2, 0.5, 0.25, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        f(tuple(rng.uniform(0, 1, size=2)))
    assert scan_violations(f.transcript, 0.5) is None


def test_scan_planted_violation_recovered():
    # A consistent transcript of 100 entries with one incompatible answer
    # planted at a random position: the scan returns a pair involving it.
    rng = np.random.default_rng(2)
    gamma = 0.5
    spec, f = make_instance("affine", 2, gamma, 0.25, seed=3)
    entries = []
    for _ in range(100):
        q = tuple(rng.uniform(0, 1, size=2))
        entries.append((q, f.probe(q)))
    pos = int(rng.integers(10, 90))
    q_bad = entries[pos][0]
    near = entries[pos - 1][0]
    # answer far from the neighbour's answer relative to the query gap
    bad = tuple(min(1.0, v + 0.9) for v in entries[pos - 1][1])
    entries[pos] = (tuple(min(1.0, v + 1e-6) for v in near), bad)
    assert violation_exists_by_definition(entries, gamma)
    cert = scan_violations(entries, gamma)
    assert cert is not None
    assert pos + 1 in (cert.t1, cert.t2)
    assert cert.lhs > cert.rhs


def test_scan_order_is_earliest_second_index():
    # Pairs (1,2) and (1,3) are consistent while (2,3) violates, so the scan
    # (ordered by later index, then earlier) must report exactly (2, 3).
    tr = [
        ((0.0,), (0.5,)),
        ((1.0,), (0.45,)),
        ((0.98,), (0.95,)),
    ]
    cert = scan_violations(tr, 0.5)
    assert (cert.t1, cert.t2) == (2, 3)


def test_scan_returns_first_pair_in_discovery_order():
    rng = np.random.default_rng(17)
    found_any = 0
    for _ in range(100):
        k = int(rng.integers(1, 3))
        entries = [
            (tuple(rng.uniform(0, 1, size=k)), tuple(rng.uniform(0, 1, size=k)))
            for _ in range(int(rng.integers(2, 10)))
        ]
        gamma = float(rng.uniform(0.2, 0.8))
        expected = None
        for t2 in range(2, len(entries) + 1):
            for t1 in range(1, t2):
                q1, a1 = entries[t1 - 1]
                q2, a2 = entries[t2 - 1]
                if linf_dist(a1, a2) > (1 - gamma) * linf_dist(q1, q2):
                    expected = (t1, t2)
                    break
            if expected:
                break
        cert = scan_violations(entries, gamma)
        got = None if cert is None else (cert.t1, cert.t2)
        assert got == expected
        found_any += got is not None
    assert found_any > 10


def test_scan_matches_exhaustive_pair_check():
    rng = np.random.default_rng(4)
    for trial in range(200):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 12))
        gamma = float(rng.uniform(0.1, 0.9))
        entries = [
            (tuple(rng.uniform(0, 1, size=k)), tuple(rng.uniform(0, 1, size=k)))
            for _ in range(m)
        ]
        cert = scan_violations(entries, gamma)
        assert (cert is not None) == violation_exists_by_definition(entries, gamma)
        if cert is not None:
            assert cert.lhs > cert.rhs
            # stored values really are those entries
            assert entries[cert.t1 - 1] == (cert.q1, cert.a1)
            assert entries[cert.t2 - 1] == (cert.q2, cert.a2)


def test_certificate_json_keys():
    cert = scan_violations([((0.0,), (0.0,)), ((1.0,), (1.0,))], 0.5)
    obj = cert.to_json_obj()
    assert set(obj) == {"t1", "t2", "q1", "q2", "a1", "a2", "lhs", "rhs"}


def test_extend_single_entry_formula():
    f = extend_consistent([((0.5, 0.5), (0.5, 0.5))], 0.5)
    assert f.probe((1.0, 1.0)) == (0.75, 0.75)
    assert f.probe((0.5, 0.5)) == (0.5, 0.5)


def test_extend_cap_branch_clamps_at_one():
    tr = [((0.0, 0.0), (1.0, 1.0))]
    f = extend_consistent(tr, 0.5)
    assert f.probe((1.0, 1.0)) == (1.0, 1.0)


def test_extend_consistency_at_all_query_points():
    rng = np.random.default_rng(5)
    gamma = 0.5
    spec, g = make_instance("affine", 2, gamma, 0.25, seed=6)
    entries = []
    for _ in range(40):
        q = tuple(rng.uniform(0, 1, size=2))
        entries.append((q, g.probe(q)))
    f = extend_consistent(entries, gamma)
    for q, a in entries:
        assert linf_dist(f.probe(q), a) <= 1e-12


def test_extend_passes_contraction_check():
    rng = np.random.default_rng(7)
    gamma = 0.25
    spec, g = make_instance("affine", 3, gamma, 0.25, seed=8)
    entries = [
        (tuple(rng.uniform(0, 1, size=3)), g.probe(tuple(rng.uniform(0, 1, size=3))))
        for _ in range(5)
    ]
    entries = [(q, g.probe(q)) for q, _ in entries]
    f = extend_consistent(entries, gamma)
    report = sampled_contraction_check(f, pairs=2000, rng=rng)
    assert report["passed"], report["violations"][:1]


def test_extend_rejects_empty_and_violating():
    with pytest.raises(ValueError):
        extend_consistent([], 0.5)
    with pytest.raises(ValueError):
        extend_consistent([((0.0,), (0.0,)), ((1.0,), (1.0,))], 0.5)
    with pytest.raises(ValueError):
        extend_consistent([((0.0,), (2.0,))], 0.5)


def tight_mirror(k, gamma, seed):
    """``x -> clip(p - (1 - gamma)(x - p), 0, 1)``: a contraction at exactly the claimed factor."""
    p = tuple(np.random.default_rng(seed).uniform(size=k))

    def fn(x):
        return tuple(min(1.0, max(0.0, pi - (1 - gamma) * (xi - pi))) for xi, pi in zip(x, p))

    return fn


def test_solve_total_matches_promise_solver_on_contraction():
    spec1, f1 = make_instance("affine", 2, 0.5, 0.25, seed=10)
    spec2, f2 = make_instance("affine", 2, 0.5, 0.25, seed=10)
    plain = solve_unit_cube(f1, 0.25, 0.5)
    total = solve_total(f2, 0.25, 0.5)
    assert total.kind == "fixed-point"
    assert total.queries == plain.queries
    assert total.result.answer == plain.answer
    assert [q for q, _ in f1.transcript.entries] == [q for q, _ in f2.transcript.entries]
    # On tight mirrors the recorded answers carry rounding that can break the
    # claimed factor by a few ulps between two queries; total search must
    # still return the solver's fixed point, never a certificate.
    for k, eps in [(1, 0.25), (1, 0.01), (1, 0.003), (2, 0.25)]:
        for seed in range(30):
            fn = tight_mirror(k, eps, seed)
            f = ContractionOracle(fn, k, eps, name="mirror")
            total = solve_total(f, eps, eps)
            assert total.kind == "fixed-point", (k, eps, seed)
            x = total.result.answer
            assert linf_dist(fn(x), x) <= eps
            if seed < 3:
                fresh = ContractionOracle(fn, k, eps, name="mirror")
                plain = solve_unit_cube(fresh, eps, eps)
                assert plain.answer == x
                assert fresh.transcript.entries == f.transcript.entries


def test_solve_total_certificate_on_anti_map():
    # Every point moves by at least 1/2 under the coordinatewise jump map, so
    # at eps = 1/4 no fixed point can be returned and the run must end with a
    # violating pair.
    def anti(x):
        return tuple(1.0 if v < 0.5 else 0.0 for v in x)

    gamma = 0.25
    f = ContractionOracle(anti, 2, gamma, name="anti")
    total = solve_total(f, 0.25, gamma)
    assert total.kind == "violation"
    assert total.result is None
    cert = total.certificate
    assert cert.lhs > cert.rhs
    # the certificate pair is a genuine violation of the recorded oracle values
    assert linf_dist(cert.a1, cert.a2) > (1 - gamma) * linf_dist(cert.q1, cert.q2)


def test_solve_total_identity_returns_genuine_fixed_point():
    # The identity map breaks the contraction claim on any two distinct
    # queries, but the solver's first query is already an exact fixed point,
    # so only one query is ever made and no violating pair can appear.
    f = make_affine(np.eye(2), [0.0, 0.0], 0.0)
    total = solve_total(f, 0.25, 0.25)
    assert total.kind == "fixed-point"
    assert total.queries == 1
    x = total.result.answer
    assert linf_dist(f.probe(x), x) <= 0.25


def test_solve_total_round_trip_extension():
    # Extend a transcript to a contraction, then solve it: a fixed point with
    # no violations.
    rng = np.random.default_rng(11)
    gamma = 0.5
    spec, g = make_instance("affine", 2, gamma, 0.25, seed=12)
    entries = []
    for _ in range(20):
        q = tuple(rng.uniform(0, 1, size=2))
        entries.append((q, g.probe(q)))
    f = extend_consistent(entries, gamma)
    total = solve_total(f, 0.25, gamma)
    assert total.kind == "fixed-point"
    x = total.result.answer
    assert linf_dist(f.probe(x), x) <= 0.25


def test_solve_total_json_round_trip_keys():
    spec, f = make_instance("affine", 1, 0.5, 0.25, seed=13)
    total = solve_total(f, 0.25, 0.5)
    obj = total.to_json_obj()
    assert set(obj) == {"kind", "queries", "certificate", "result"}
    assert obj["kind"] == "fixed-point"
    assert obj["certificate"] is None


def test_transcript_object_accepted_by_scan():
    t = QueryTranscript()
    t.append((0.0, 0.0), (0.0, 0.0))
    t.append((1.0, 1.0), (1.0, 1.0))
    cert = scan_violations(t, 0.5)
    assert cert is not None and (cert.t1, cert.t2) == (1, 2)


def test_solve_total_counts_from_the_runs_first_query():
    # The oracle answered two queries before the run, and those two already
    # violate the claim between themselves.  The jump map has no eps-fixed
    # point, so the run fails and scans only its own queries, numbered from 1.
    def jump(x):
        return tuple(1.0 if v < 0.5 else 0.0 for v in x)

    gamma = 0.25
    f = ContractionOracle(jump, 2, gamma, name="jump")
    f((0.0, 0.0))
    f((1.0, 1.0))
    assert scan_violations(f.transcript, gamma) is not None
    start = f.queries
    total = solve_total(f, 0.25, gamma)
    assert total.kind == "violation"
    cert = total.certificate
    assert 1 <= cert.t1 < cert.t2 <= total.queries
    assert (cert.q1, cert.a1) == f.transcript.entries[start + cert.t1 - 1]
    assert (cert.q2, cert.a2) == f.transcript.entries[start + cert.t2 - 1]
    assert f.queries - start == total.queries
    assert cert.lhs > cert.rhs


def test_scan_decides_pairs_exactly():
    # Pinned 1-d pairs on which the float comparison gives the wrong answer.
    # At gamma = 0.3 the floats report lhs > rhs, but exactly lhs < rhs.
    tr = [((0.8951454232489466,), (0.754555337946424,)),
          ((0.8550043504837936,), (0.7826540888820311,))]
    assert linf_dist(tr[0][1], tr[1][1]) > (1 - 0.3) * linf_dist(tr[0][0], tr[1][0])
    assert scan_violations(tr, 0.3) is None
    # At gamma = 0.2 the floats report no violation, but exactly lhs > rhs.
    tr = [((0.5692038748222122,), (0.06310682188770933,)),
          ((0.8022650611681835,), (0.24955577096448636,))]
    assert not linf_dist(tr[0][1], tr[1][1]) > (1 - 0.2) * linf_dist(tr[0][0], tr[1][0])
    cert = scan_violations(tr, 0.2)
    assert cert is not None and (cert.t1, cert.t2) == (1, 2)
    assert cert.lhs >= cert.rhs
