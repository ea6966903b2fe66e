"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion-level checks recompute every expected value independently of the
implementation under test: grid sizes and query bounds from the parameter
formulas in integers, fixed points from a fresh linear solve on the stored
instance parameters, and balancedness/pyramid membership from their literal
definitions.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cubefix.adversary import (
    DiamondMap,
    check_diagonal_nonexpansive,
    eval_diamond_map,
    extend_to_square,
    strip_family,
)
from cubefix.balanced import find_balanced_point
from cubefix.geometry import even_points_near, linf_dist
from cubefix.oracles import (
    ContractionOracle,
    InstanceSpec,
    build_instance,
    make_affine,
    make_instance,
    sampled_contraction_check,
)
from cubefix.properties import (
    around_containment_suite,
    escape_pyramid_suite,
    fixed_point_region_suite,
)
from cubefix.solver import CandidateSet, picard_baseline, solve_strong, solve_unit_cube
from cubefix.total import extend_consistent, scan_violations, solve_total
from pyramids import PyramidSpec, enumerate_even, in_pyramid

CAP = 10 ** 7
SEEDS = range(10)
EPS_CELLS = (0.5, 0.25)
K_CELLS = (1, 2, 3)
FAMILIES = ("affine", "constant", "diamond")


def verdict(num, label, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num} {label}: {status}{extra}")
    assert not failures, failures[:3]


def route(eps, gamma):
    """Effective (eps', gamma') after the non-expansive reduction rule."""
    if gamma < eps / 2:
        return eps / 2, eps / 2
    return eps, gamma


def expected_grid_and_bound(eps, gamma, k):
    eff_e, eff_g = route(eps, gamma)
    n = math.ceil(Fraction(16) / (Fraction(eff_g) * Fraction(eff_e)))
    m = (n // 2 + 1) ** k
    b = 0
    while 2 ** b < m:
        b += 1
    return n, b + 1


def independent_fixed_point(spec):
    """Fresh linear solve of (I - (1 - gamma) M) x = c from stored parameters."""
    if spec.family == "constant":
        return tuple(spec.params["c"])
    if spec.family == "affine":
        M = np.asarray(spec.params["M"], dtype=float)
        c = np.asarray(spec.params["c"], dtype=float)
        A = (1.0 - spec.gamma) * M
        return tuple(np.linalg.solve(np.eye(spec.k) - A, c))
    return None


@pytest.fixture(scope="module")
def sweep():
    """The default sweep shared by criteria 1-3, with per-round bookkeeping."""
    runs = []
    skipped = []
    for family, k, eps in itertools.product(FAMILIES, K_CELLS, EPS_CELLS):
        if family == "diamond" and k != 2:
            continue
        gamma = 0.0 if family == "diamond" else eps
        n, bound = expected_grid_and_bound(eps, gamma, k)
        if (n // 2 + 1) ** k > CAP:
            skipped.append({"family": family, "k": k, "eps": eps,
                            "candidates": (n // 2 + 1) ** k, "cap": CAP})
            continue
        for seed in SEEDS:
            spec, oracle = make_instance(family, k, gamma, eps, seed)
            fix_unit = independent_fixed_point(spec)
            fix_grid = None if fix_unit is None else tuple(n * v for v in fix_unit)
            halving_bad, contain_bad = [], []

            def on_round(rec, before, after, fix_grid=fix_grid, k=k,
                         halving_bad=halving_bad, contain_bad=contain_bad):
                if after is None:
                    return
                if 2 * len(after) > len(before):
                    halving_bad.append((rec.t, len(before), len(after)))
                if fix_grid is not None:
                    near = even_points_near(fix_grid, before.n, k)
                    if not after.contains_points(near).all():
                        contain_bad.append((rec.t, fix_grid))

            res = solve_unit_cube(oracle, eps, gamma, cap=CAP, on_round=on_round)
            fresh = build_instance(InstanceSpec.from_json_obj(spec.to_json_obj()))
            measured = (None if res.answer is None
                        else linf_dist(fresh.probe(res.answer), res.answer))
            runs.append({
                "family": family, "k": k, "eps": eps, "gamma": gamma,
                "seed": seed, "outcome": res.outcome, "queries": res.queries,
                "expected_n": n, "expected_bound": bound, "reported_n": res.n,
                "measured_residual": measured, "halving_bad": halving_bad,
                "contain_bad": contain_bad, "routed": res.routed,
            })
    return {"runs": runs, "skipped": skipped}


def test_criterion_1_query_bound(sweep):
    failures = []
    for r in sweep["runs"]:
        if r["outcome"] != "fixed-point-found":
            failures.append({"run": r, "why": "no fixed point"})
        elif r["reported_n"] != r["expected_n"]:
            failures.append({"run": r, "why": "grid size mismatch"})
        elif r["queries"] > r["expected_bound"]:
            failures.append({"run": r, "why": "query bound exceeded"})
    detail = (f"{len(sweep['runs'])} runs, "
              f"{len(sweep['skipped'])} cells over candidate cap")
    for cell in sweep["skipped"]:
        print(f"  skipped cell (cap): {cell}")
    verdict(1, "query bound over default sweep", failures, detail)


def test_criterion_2_output_correctness(sweep):
    failures = []
    for r in sweep["runs"]:
        if r["measured_residual"] is None or r["measured_residual"] > r["eps"]:
            failures.append({"run": r, "why": "residual above eps"})
    strong_cells = 0
    strong_skipped = []
    for k, eps in itertools.product(K_CELLS, EPS_CELLS):
        gamma = eps
        n, _ = expected_grid_and_bound(eps * gamma, gamma, k)
        if (n // 2 + 1) ** k > CAP:
            strong_skipped.append({"k": k, "eps": eps,
                                   "candidates": (n // 2 + 1) ** k, "cap": CAP})
            continue
        strong_cells += 1
        for seed in SEEDS:
            spec, oracle = make_instance("affine", k, gamma, eps, seed)
            fix = independent_fixed_point(spec)
            res = solve_strong(oracle, eps, gamma, cap=CAP)
            if res.outcome != "fixed-point-found":
                failures.append({"k": k, "eps": eps, "seed": seed,
                                 "why": "strong run found no fixed point"})
            elif linf_dist(res.answer, fix) > eps + 1e-9:
                failures.append({"k": k, "eps": eps, "seed": seed,
                                 "why": "strong answer too far from fixed point",
                                 "dist": linf_dist(res.answer, fix)})
    for cell in strong_skipped:
        print(f"  skipped strong cell (cap): {cell}")
    verdict(2, "residuals and strong-variant distance", failures,
            f"{strong_cells * len(SEEDS)} strong runs, "
            f"{len(strong_skipped)} strong cells over cap")


def test_criterion_3_halving_and_containment(sweep):
    failures = []
    for r in sweep["runs"]:
        if r["halving_bad"]:
            failures.append({"run": r, "why": "halving broken"})
        if r["contain_bad"]:
            failures.append({"run": r, "why": "containment broken"})
    rounds_checked = sum(r["queries"] for r in sweep["runs"])
    verdict(3, "halving + containment every round", failures,
            f"{rounds_checked} rounds")


def covered_by_definition(x, q, s):
    return any(in_pyramid(x, PyramidSpec(q, i, s[i])) for i in range(len(q)))


def balanced_by_definition(q, T):
    m = len(T)
    for s in itertools.product((-1, 1), repeat=len(q)):
        count = sum(covered_by_definition(x, q, s) for x in T)
        if 2 * count < m:
            return False
    return True


def balanced_by_definition_batch(grid, members, qs):
    """``balanced_by_definition`` for many subsets of one grid at once.

    ``members[b]`` marks the grid points of subset ``b`` and ``qs[b]`` is its
    query point.  Sign ``s`` covers ``x`` iff some coordinate ``i`` has
    ``s_i * (x_i - q_i) == max_j |x_j - q_j|``: ``x`` lies in ``P_i(q, s_i)``,
    checked pyramid by pyramid, for every full sign vector and every point.
    """
    grid, members, qs = np.asarray(grid), np.asarray(members, dtype=bool), np.asarray(qs)
    d = grid[None, :, :] - qs[:, None, :]
    md = np.abs(d).max(axis=2, keepdims=True)
    m = members.sum(axis=1)
    ok = np.ones(len(qs), dtype=bool)
    for s in itertools.product((-1, 1), repeat=grid.shape[1]):
        covered = (np.asarray(s) * d == md).any(axis=2)
        ok &= 2 * (covered & members).sum(axis=1) >= m
    return ok


def all_subsets(size):
    """Membership rows of every non-empty subset of ``size`` points, by bit mask."""
    masks = np.arange(1, 2 ** size)
    return (masks[:, None] >> np.arange(size)) & 1 == 1


def test_criterion_4_verifier_matches_definition_loop():
    # The batch verifier against the pyramid-by-pyramid loop, on every subset
    # of EVEN(n, 2) for n in (2, 4) and every query point of [0, n]^2.
    for n in (2, 4):
        grid = list(enumerate_even(n, 2))
        members = all_subsets(len(grid))
        for q in itertools.product(range(n + 1), repeat=2):
            got = balanced_by_definition_batch(grid, members, [q] * len(members))
            want = [balanced_by_definition(q, [x for x, inside in zip(grid, row) if inside])
                    for row in members]
            assert list(got) == want


def test_criterion_4_balanced_point_equivalence():
    failures = []
    subsets = 0
    for n in (2, 4, 6):
        grid = list(enumerate_even(n, 2))
        members = all_subsets(len(grid))
        qs = [find_balanced_point(CandidateSet(
                  np.array([x for x, inside in zip(grid, row) if inside]).T, n))
              for row in members]
        subsets += len(qs)
        ok = balanced_by_definition_batch(grid, members, qs)
        failures += [{"n": n, "T": [x for x, inside in zip(grid, members[b]) if inside],
                      "q": qs[b]} for b in np.flatnonzero(~ok)]
    rng = np.random.default_rng(2024)
    grid3 = list(enumerate_even(10, 3))
    members = np.zeros((1000, len(grid3)), dtype=bool)
    qs = []
    for b in range(1000):
        size = int(rng.integers(1, 30))
        idx = rng.choice(len(grid3), size=size, replace=False)
        members[b, idx] = True
        qs.append(find_balanced_point(CandidateSet(np.array([grid3[i] for i in idx]).T, 10)))
    ok = balanced_by_definition_batch(grid3, members, qs)
    failures += [{"n": 10, "k": 3, "T": [grid3[i] for i in np.flatnonzero(members[b])],
                  "q": qs[b]} for b in np.flatnonzero(~ok)]
    verdict(4, "balanced points verified exhaustively", failures,
            f"{subsets} exhaustive subsets + 1000 random k=3 sets")


def pyramid_union_mask(grid, apex, s):
    d = grid - np.asarray(apex)
    md = np.abs(d).max(axis=1)
    mask = np.zeros(len(grid), dtype=bool)
    for i, si in enumerate(s):
        if si != 0:
            mask |= si * d[:, i] == md
    return mask


def test_criterion_5_lemma_suites():
    failures = []
    for k in (2, 3):
        for suite in (fixed_point_region_suite, around_containment_suite,
                      escape_pyramid_suite):
            report = suite(trials=1000, rng=np.random.default_rng(100 + k),
                           ks=(k,))
            if report["failures"]:
                failures.append({"suite": report["name"], "k": k,
                                 "witnesses": report["witnesses"][:1]})
    # exhaustive escape check at n <= 8, k = 2: for every apex, sign vector
    # and coordinate there is a pyramid at the apex missing the whole union
    n = 8
    grid = np.array(list(itertools.product(range(n + 1), repeat=2)))
    exhaustive = 0
    for a in itertools.product(range(n + 1), repeat=2):
        for s in itertools.product((-1, 0, 1), repeat=2):
            if not any(s):
                continue
            b = tuple(a[i] + 2 * s[i] for i in range(2))
            union = pyramid_union_mask(grid, b, s)
            for j in range(2):
                phis = (-s[j],) if s[j] != 0 else (-1, 1)
                for phi in phis:
                    d = grid - np.asarray(a)
                    own = phi * d[:, j] == np.abs(d).max(axis=1)
                    exhaustive += 1
                    if np.any(own & union):
                        failures.append({"a": a, "s": s, "j": j, "phi": phi})
    verdict(5, "geometry lemma suites", failures,
            f"3 suites x 1000 trials x k in (2,3); {exhaustive} exhaustive escapes")


def test_criterion_6_total_search_equivalence():
    failures = []
    rng = np.random.default_rng(6)
    # 100 violation-free transcripts extend to consistent contractions
    for trial in range(100):
        k = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.2, 0.8))
        spec, g = make_instance("affine", k, gamma, 0.25, seed=trial)
        entries = []
        for _ in range(int(rng.integers(2, 9))):
            q = tuple(rng.uniform(0, 1, size=k))
            entries.append((q, g.probe(q)))
        if scan_violations(entries, gamma) is not None:
            failures.append({"trial": trial, "why": "transcript not violation-free"})
            continue
        f = extend_consistent(entries, gamma)
        for q, a in entries:
            if linf_dist(f.probe(q), a) > 1e-12:
                failures.append({"trial": trial, "why": "extension inconsistent"})
        report = sampled_contraction_check(f, pairs=500, rng=rng)
        if not report["passed"]:
            failures.append({"trial": trial, "why": "extension not a contraction",
                             "witness": report["violations"][:1]})
    # query-for-query agreement with the promise solver on true contractions
    for seed in range(20):
        spec1, f1 = make_instance("affine", 2, 0.5, 0.25, seed=seed)
        spec2, f2 = make_instance("affine", 2, 0.5, 0.25, seed=seed)
        plain = solve_unit_cube(f1, 0.25, 0.5)
        total = solve_total(f2, 0.25, 0.5)
        if total.kind != "fixed-point" or total.queries != plain.queries:
            failures.append({"seed": seed, "why": "total/promise disagree"})
        elif [q for q, _ in f1.transcript.entries] != [q for q, _ in f2.transcript.entries]:
            failures.append({"seed": seed, "why": "query sequences differ"})
    # broken promises must end in a correct output within the promise bound
    _, bound = expected_grid_and_bound(0.25, 0.25, 2)
    # The identity breaks the claimed gamma = 0.25 on any two distinct
    # queries, but it fixes every point: the solver's first query is already
    # an exact fixed point, so the run stops after one query with no pair to
    # compare.  A genuine eps-fixed point is a correct total-search output.
    ident = make_affine(np.eye(2), [0.0, 0.0], 0.0)
    total = solve_total(ident, 0.25, 0.25)
    if total.kind != "fixed-point" or total.queries > bound:
        failures.append({"why": "identity run not a fixed point within the bound",
                         "kind": total.kind, "queries": total.queries})
    else:
        x = total.result.answer
        fresh = make_affine(np.eye(2), [0.0, 0.0], 0.0)
        if linf_dist(fresh.probe(x), x) > 0.25:
            failures.append({"why": "identity answer residual above eps", "x": x})

    # The coordinatewise jump map moves every point by at least 1/2 > eps, so
    # it has no eps-fixed point and the only correct output is a certificate.
    def jump(x):
        return tuple(1.0 if v < 0.5 else 0.0 for v in x)

    total = solve_total(ContractionOracle(jump, 2, 0.25, name="jump"), 0.25, 0.25)
    if total.kind != "violation" or total.queries > bound:
        failures.append({"why": "jump run not a certificate within the bound",
                         "kind": total.kind, "queries": total.queries})
    else:
        c = total.certificate
        if not linf_dist(jump(c.q1), jump(c.q2)) > 0.75 * linf_dist(c.q1, c.q2):
            failures.append({"why": "jump certificate is no violation",
                             "q1": c.q1, "q2": c.q2})
    verdict(6, "total search equivalence", failures,
            "100 extensions + 20 query-for-query runs + identity fixed point"
            " + jump-map certificate")


def test_criterion_7_adversary_construction():
    failures = []
    rng = np.random.default_rng(7)
    for side, arc in [("sw", 0.3), ("ne", 0.45), ("sw", 0.62)]:
        m = DiamondMap(0.05, side, arc)
        if linf_dist(eval_diamond_map(m, m.anchor), m.anchor) != 0.0:
            failures.append({"map": (side, arc), "why": "anchor not fixed"})
        count = 0
        while count < 2000:
            p = rng.uniform(0, 1, size=2)
            if abs(p[0] - 0.5) + abs(p[1] - 0.5) > 0.5:
                continue
            count += 1
            p = (float(p[0]), float(p[1]))
            if p != m.anchor:
                if linf_dist(eval_diamond_map(m, p), p) <= 0.0:
                    failures.append({"map": (side, arc), "p": p,
                                     "why": "second fixed point"})
        report = check_diagonal_nonexpansive(
            lambda p, m=m: eval_diamond_map(m, p), samples=10_000,
            rng=np.random.default_rng(70), domain="diamond")
        if report["max_ratio"] > 1 + 1e-12:
            failures.append({"map": (side, arc), "why": "diagonal ratio too big",
                             "ratio": report["max_ratio"]})
        g = extend_to_square(m)
        report = check_diagonal_nonexpansive(g.probe, samples=10_000,
                                             rng=np.random.default_rng(71))
        if report["max_ratio"] > 1 + 1e-12:
            failures.append({"map": (side, arc, "square"),
                             "why": "diagonal ratio too big"})
    fam = strip_family(8)
    for x in range(1, 9):
        ms, mt = fam.pair(x)
        if not linf_dist(ms.anchor, mt.anchor) > 0.5:
            failures.append({"strip": x, "why": "anchors not separated"})
        lo, hi = fam.strip_v_range(x)
        checked = 0
        while checked < 300:
            p = rng.uniform(0, 1, size=2)
            if abs(p[0] - 0.5) + abs(p[1] - 0.5) > 0.5:
                continue
            p = (float(p[0]), float(p[1]))
            if lo <= p[1] - p[0] <= hi:
                continue
            checked += 1
            if eval_diamond_map(ms, p) != eval_diamond_map(mt, p):
                failures.append({"strip": x, "p": p,
                                 "why": "out-of-strip queries distinguish the pair"})
    verdict(7, "adversary family", failures,
            "3 maps x 10^4 diagonal pairs + N=8 strip family")


def test_criterion_8_picard_contrast():
    gamma, eps = 2 ** -8, 2 ** -4
    c = 1.0 - gamma / 2.0
    slow = make_affine([[-1.0]], [c], gamma)
    picard = picard_baseline(slow, eps, start=(0.0,))
    fast_oracle = make_affine([[-1.0]], [c], gamma)
    res = solve_unit_cube(fast_oracle, eps, gamma, cap=CAP)
    _, bound = expected_grid_and_bound(eps, gamma, 1)
    failures = []
    if picard.queries < 2 ** 6:
        failures.append({"why": "Picard finished too quickly",
                         "queries": picard.queries})
    if res.outcome != "fixed-point-found" or res.queries > bound:
        failures.append({"why": "solver outside its bound",
                         "queries": res.queries, "bound": bound})
    verdict(8, "Picard baseline contrast", failures,
            f"picard={picard.queries} queries, solver={res.queries} "
            f"of bound {bound}")
