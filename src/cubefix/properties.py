"""Randomized property suites behind the ``verify-lemmas`` command.

Each suite spot-checks one load-bearing fact of the solver's correctness
argument on randomized (and, where cheap, exhaustive) instances:

* ``residual-locates-fixed-point``: a query with residual above ``16/gamma``
  pins the true fixed point inside the pyramid union at apex ``a + 4s``.
* ``around-ball-stays-in-union``: points of the union at apex ``b + 2s`` keep
  their whole radius-1 neighbourhood inside the union at apex ``b``.
* ``opposite-pyramid-is-disjoint``: for every coordinate ``j`` some pyramid at
  the query point itself (``-s_j`` when ``s_j != 0``, both signs when
  ``s_j = 0``) misses the kept union entirely — elimination always discards a
  pyramid's worth of candidates.
* ``balanced-point-exists``: the balanced-point search succeeds on arbitrary
  non-empty even subsets and its output passes a literal re-check.
* ``elimination-halves-and-keeps-neighborhood``: on full solver runs, every
  round at least halves the candidate set and never drops the even points
  around the true fixed point.  ``eliminate_fn`` is a seam for mutation
  testing: an intentionally broken elimination must make this suite fail.
* ``transcript-extension-matches-and-contracts``: extending a violation-free
  transcript reproduces the recorded answers exactly and stays a genuine
  contraction on sampled pairs.
* ``diamond-map-diagonal-nonexpansive``: the rotated-square adversary map
  fixes its anchor and is non-expansive on sampled diagonal pairs.
* ``rescaled-oracle-keeps-factor``: the grid view, routed or not, keeps its
  declared contraction factor on sampled pairs.

Every suite returns a report dict ``{name, trials, failures, passed,
witnesses, details}`` with at most five witnesses; zero requested trials pass
vacuously with a warning.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

import numpy as np

from .adversary import DiamondMap, check_diagonal_nonexpansive, extend_to_square
from .balanced import find_balanced_point, is_balanced, select_query_point
from .errors import InstanceTooLargeError, InternalInvariantError
from .geometry import (around_contains, even_grid, even_points_near, in_pyramid_union,
                       linf_dist, sign_vector)
from .oracles import AffineOracle, GridView, _random_affine_params, sampled_contraction_check
from .solver import OUTCOME_FIXED_POINT, CandidateSet, eliminate, solve
from .total import extend_consistent, scan_violations

__all__ = [
    "SUITE_NAMES", "MUTATIONS", "run_all",
    "fixed_point_region_suite", "around_containment_suite", "escape_pyramid_suite",
    "balanced_point_suite", "halving_containment_suite", "extension_consistency_suite",
    "diagonal_pairs_suite", "rescale_contraction_suite",
]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _report(name: str, trials: int, failures: int, witnesses: list,
            details: dict | None = None) -> dict:
    rep = {"name": name, "trials": trials, "failures": failures,
           "passed": failures == 0, "witnesses": [_jsonable(w) for w in witnesses[:5]]}
    if details:
        rep["details"] = _jsonable(details)
    if trials == 0:
        rep["warning"] = "zero trials requested - vacuous pass"
    return rep


def _cycle_k(t: int, ks: tuple[int, ...]) -> int:
    return ks[t % len(ks)]


def fixed_point_region_suite(trials: int, rng: np.random.Generator,
                             ks: tuple[int, ...] = (2, 3)) -> dict:
    """High-residual queries locate the fixed point in the union at ``a + 4s``."""
    failures, witnesses, checks = 0, [], 0
    for t in range(trials):
        k = _cycle_k(t, ks)
        gamma = float(rng.uniform(0.3, 0.9))
        n = int(np.ceil(40.0 / gamma ** 2))
        params = _random_affine_params(k, gamma, rng)
        g = AffineOracle(params["M"], [n * v for v in params["c"]], gamma, side=float(n))
        fix = g.fixed_point
        threshold = 16.0 / gamma
        # The corner farthest from the fixed point always has a large residual;
        # a few uniform samples add interior coverage when they qualify too.
        queries = [tuple(0.0 if fi > n / 2 else float(n) for fi in fix)]
        queries += [tuple(rng.uniform(0.0, n, size=k)) for _ in range(3)]
        for a in queries:
            ga = g.probe(a)
            if linf_dist(ga, a) <= threshold:
                continue
            checks += 1
            s = sign_vector(a, ga)
            apex = tuple(ai + 4 * si for ai, si in zip(a, s))
            if not in_pyramid_union(fix, apex, s):
                failures += 1
                witnesses.append({"gamma": gamma, "n": n, "a": a, "g_a": ga,
                                  "s": s, "fix": fix})
    return _report("residual-locates-fixed-point", trials, failures, witnesses,
                   {"qualifying_checks": checks})


def around_containment_suite(trials: int, rng: np.random.Generator,
                             ks: tuple[int, ...] = (2, 3)) -> dict:
    """Radius-1 balls around union points at apex ``b + 2s`` stay in the union at ``b``."""
    n = 20
    failures, witnesses, checks, skipped = 0, [], 0, 0
    for t in range(trials):
        k = _cycle_k(t, ks)
        s = _random_sign(rng, k)
        b = rng.uniform(-4.0, n + 4.0, size=k)
        apex2 = b + 2 * np.asarray(s, dtype=float)
        x = None
        for _ in range(200):
            z = rng.uniform(0.0, n, size=k)
            i = int(rng.choice([j for j in range(k) if s[j] != 0]))
            z[i] = apex2[i] + s[i] * np.abs(z - apex2).max()
            if 0.0 <= z[i] <= n and in_pyramid_union(tuple(z), tuple(apex2), s):
                x = tuple(float(v) for v in z)
                break
        if x is None:
            skipped += 1
            continue
        # Offsets stay strictly inside the unit ball so that clipping against
        # the cube can never round the distance past 1.
        samples = [np.clip(np.asarray(x) + rng.uniform(-0.999, 0.999, size=k), 0.0, n)
                   for _ in range(16)]
        samples += [np.clip(np.asarray(x) + 0.999 * np.asarray(corner, dtype=float),
                            0.0, n)
                    for corner in product((-1.0, 1.0), repeat=k)]
        for y in samples:
            y = tuple(float(v) for v in y)
            checks += 1
            if not around_contains(x, y, n):
                raise InternalInvariantError("sampled point left the Around ball")
            if not in_pyramid_union(y, tuple(b), s):
                failures += 1
                witnesses.append({"b": b, "s": s, "x": x, "y": y})
    return _report("around-ball-stays-in-union", trials, failures, witnesses,
                   {"point_checks": checks, "skipped_trials": skipped})


def escape_pyramid_suite(trials: int, rng: np.random.Generator,
                         ks: tuple[int, ...] = (2, 3)) -> dict:
    """For every coordinate some pyramid at the query point misses the kept union.

    Exhaustive over the full integer grid ``[0, 8]^k`` per trial, all in exact
    integer arithmetic: the union at apex ``a + 2s`` is disjoint from
    ``P_j(a, -s_j)`` when ``s_j != 0`` and from both ``P_j(a, +-1)`` when
    ``s_j = 0``.
    """
    n = 8
    grids = {k: np.stack(np.meshgrid(*([np.arange(n + 1)] * k), indexing="ij"),
                         axis=-1).reshape(-1, k).astype(np.int64) for k in set(ks)}
    failures, witnesses, checks = 0, [], 0
    for t in range(trials):
        k = _cycle_k(t, ks)
        pts = grids[k]
        a = rng.integers(0, n + 1, size=k)
        s = _random_sign(rng, k)
        s_arr = np.asarray(s, dtype=np.int64)
        d2 = pts - (a + 2 * s_arr)
        md2 = np.abs(d2).max(axis=1)
        in_union = np.zeros(len(pts), dtype=bool)
        for i in range(k):
            if s[i] != 0:
                in_union |= s[i] * d2[:, i] == md2
        d0 = pts - a
        md0 = np.abs(d0).max(axis=1)
        for j in range(k):
            phis = (-s[j],) if s[j] != 0 else (-1, 1)
            for phi in phis:
                checks += 1
                overlap = in_union & (phi * d0[:, j] == md0)
                if overlap.any():
                    failures += 1
                    witnesses.append({"a": a, "s": s, "j": j, "phi": phi,
                                      "point": pts[overlap][0]})
    return _report("opposite-pyramid-is-disjoint", trials, failures, witnesses,
                   {"disjointness_checks": checks, "grid_side": n})


def balanced_point_suite(trials: int, rng: np.random.Generator) -> dict:
    """Balanced-point search succeeds on random even subsets and re-verifies."""
    failures, witnesses = 0, []
    for t in range(trials):
        k = _cycle_k(t, (1, 2, 3))
        n = int(rng.choice([2, 4, 6, 8, 10]))
        full = even_grid(n, k)
        keep = rng.random(len(full[0])) < rng.uniform(0.1, 0.9)
        if not keep.any():
            keep[rng.integers(0, len(full[0]))] = True
        T = CandidateSet([c[keep] for c in full], n)
        for finder in (find_balanced_point, select_query_point):
            q = finder(T)
            ok = (all(0 <= v <= n for v in q) and is_balanced(q, T)
                  and _balanced_literal(q, T.points, k))
            if not ok:
                failures += 1
                witnesses.append({"finder": finder.__name__, "n": n, "k": k,
                                  "T": T.points, "q": q})
    return _report("balanced-point-exists", trials, failures, witnesses)


def halving_containment_suite(trials: int, rng: np.random.Generator,
                              eliminate_fn: Callable | None = None) -> dict:
    """Full solver runs halve the candidate set and keep the fixed point's even ball.

    ``eliminate_fn`` replaces the production elimination step (mutation mode);
    halving breaks surface as internal-invariant errors, containment breaks as
    direct witness records.
    """
    gamma = 0.8
    n = 64
    failures, witnesses, rounds_seen, eliminations = 0, [], 0, 0
    for t in range(trials):
        k = _cycle_k(t, (2, 3))
        g = _corner_fixed_instance(k, gamma, n, rng)
        target = even_points_near(g.fixed_point, n, k)
        trial_witness = []

        def on_round(rec, before, after):
            nonlocal rounds_seen, eliminations
            rounds_seen += 1
            if after is None:
                return
            eliminations += 1
            missing = ~after.contains_points(target)
            if missing.any():
                trial_witness.append({"kind": "containment", "round": rec.t,
                                      "dropped": target[missing][0]})

        try:
            res = solve(g, gamma, on_round=on_round,
                        eliminate_fn=eliminate_fn or eliminate)
            if res.outcome != OUTCOME_FIXED_POINT:
                trial_witness.append({"kind": "outcome", "outcome": res.outcome})
        except (InternalInvariantError, InstanceTooLargeError) as exc:
            trial_witness.append({"kind": "invariant-error", "error": str(exc)})
        if trial_witness:
            failures += 1
            witnesses.append({"trial": t, "k": k, "problems": trial_witness[:3]})
    if trials > 0 and eliminations == 0 and eliminate_fn is None:
        failures += 1
        witnesses.append({"kind": "no-eliminations-exercised"})
    return _report("elimination-halves-and-keeps-neighborhood", trials, failures,
                   witnesses, {"rounds_checked": rounds_seen,
                               "eliminations": eliminations,
                               "mutated": eliminate_fn is not None})


def extension_consistency_suite(trials: int, rng: np.random.Generator) -> dict:
    """Extensions of violation-free transcripts match them exactly and contract."""
    failures, witnesses = 0, []
    for t in range(trials):
        k = _cycle_k(t, (1, 2, 3))
        gamma = float(rng.uniform(0.1, 0.9))
        params = _random_affine_params(k, gamma, rng)
        src = AffineOracle(params["M"], params["c"], gamma)
        entries = []
        for _ in range(int(rng.integers(2, 9))):
            q = tuple(rng.uniform(0.0, 1.0, size=k))
            entries.append((q, src.probe(q)))
        problems = []
        if scan_violations(entries, gamma) is not None:
            problems.append("source transcript claimed violating")
        ext = extend_consistent(entries, gamma)
        for q, a in entries:
            if linf_dist(ext.probe(q), a) > 1e-12:
                problems.append({"kind": "query-mismatch", "q": q, "a": a,
                                 "got": ext.probe(q)})
        check = sampled_contraction_check(ext, pairs=200, rng=rng)
        if not check["passed"]:
            problems.append({"kind": "contraction", "worst": check["worst_excess"]})
        if problems:
            failures += 1
            witnesses.append({"trial": t, "gamma": gamma, "problems": problems[:3]})
    return _report("transcript-extension-matches-and-contracts", trials, failures,
                   witnesses)


def diagonal_pairs_suite(trials: int, rng: np.random.Generator) -> dict:
    """The adversary map fixes its anchor and is non-expansive on diagonal pairs."""
    failures, witnesses = 0, []
    arc_len = 1.0 / np.sqrt(2.0)
    for t in range(trials):
        delta = float(rng.uniform(0.02, 0.3))
        side = ["sw", "ne"][t % 2]
        arc = float(rng.uniform(delta, arc_len - delta))
        m = DiamondMap(delta, side, arc)
        problems = []
        if m(m.anchor) != m.anchor:
            problems.append({"kind": "anchor-moves", "anchor": m.anchor})
        rep_d = check_diagonal_nonexpansive(m, samples=200, rng=rng, domain="diamond")
        if not rep_d["passed"]:
            problems.append({"kind": "diamond-pairs", "max_ratio": rep_d["max_ratio"]})
        sq = extend_to_square(m)
        rep_s = check_diagonal_nonexpansive(sq.probe, samples=200, rng=rng,
                                            domain="square")
        if not rep_s["passed"]:
            problems.append({"kind": "square-pairs", "max_ratio": rep_s["max_ratio"]})
        if problems:
            failures += 1
            witnesses.append({"trial": t, "delta": delta, "side": side, "arc": arc,
                              "problems": problems})
    return _report("diamond-map-diagonal-nonexpansive", trials, failures, witnesses)


def rescale_contraction_suite(trials: int, rng: np.random.Generator) -> dict:
    """The grid view keeps its declared contraction factor on sampled pairs."""
    failures, witnesses = 0, []
    for t in range(trials):
        k = _cycle_k(t, (1, 2, 3))
        gamma = float(rng.uniform(0.1, 0.9))
        eps = float(rng.uniform(0.1, 1.0))
        params = _random_affine_params(k, gamma, rng)
        f = AffineOracle(params["M"], params["c"], gamma)
        g = GridView(f, eps, gamma)
        check = sampled_contraction_check(g, pairs=100, rng=rng)
        if not check["passed"]:
            failures += 1
            witnesses.append({"gamma": gamma, "eps": eps, "n": g.n,
                              "worst": check["worst_excess"]})
    return _report("rescaled-oracle-keeps-factor", trials, failures, witnesses)


def _corner_fixed_instance(k: int, gamma: float, n: int,
                           rng: np.random.Generator) -> AffineOracle:
    """Affine grid instance whose fixed point sits near a random corner.

    The centre-of-grid first query then has residual at least
    ``gamma * (n/2 - 5)``, which exceeds ``16/gamma`` for ``gamma = 0.8`` and
    ``n = 64``, so every run performs at least one elimination round.  The
    offset is solved from the chosen fixed point; infeasible draws (image
    leaving the cube) fall back to a constant map, which is always feasible.
    """
    corner = rng.integers(0, 2, size=k) * n
    fix = np.clip(corner + rng.uniform(-4.0, 4.0, size=k), 0.0, n)
    for _ in range(20):
        M = _random_affine_params(k, gamma, rng)["M"]
        c = (np.eye(k) - (1.0 - gamma) * np.asarray(M)) @ fix
        try:
            return AffineOracle(M, c, gamma, side=float(n))
        except ValueError:
            continue
    return AffineOracle(np.zeros((k, k)), fix, gamma, side=float(n))


def _random_sign(rng: np.random.Generator, k: int) -> tuple[int, ...]:
    while True:
        s = tuple(int(v) for v in rng.integers(-1, 2, size=k))
        if any(s):
            return s


def _balanced_literal(q, pts, k: int) -> bool:
    """Literal re-check of balance: plain loops over all full sign vectors."""
    pts = [tuple(int(v) for v in row) for row in np.asarray(pts).reshape(-1, k)]
    q = tuple(int(v) for v in q)
    m = len(pts)
    for s in product((-1, 1), repeat=k):
        covered = sum(1 for x in pts if in_pyramid_union(x, q, s))
        if 2 * covered < m:
            return False
    return True


_ELIMINATE_MUTANTS: dict[str, Callable] = {
    # Apex lands on the query point instead of two steps past it: the kept
    # union then covers at least half of any balanced set, so halving breaks.
    "eliminate-off-by-one": lambda T, a, s: eliminate(
        T, tuple(int(v) - 2 * int(si) for v, si in zip(a, s)), s),
}

MUTATIONS = tuple(sorted(_ELIMINATE_MUTANTS))

_SUITES: tuple[tuple[str, Callable, int], ...] = (  # name, suite, default trials
    ("residual-locates-fixed-point", fixed_point_region_suite, 200),
    ("around-ball-stays-in-union", around_containment_suite, 200),
    ("opposite-pyramid-is-disjoint", escape_pyramid_suite, 200),
    ("balanced-point-exists", balanced_point_suite, 200),
    ("elimination-halves-and-keeps-neighborhood", halving_containment_suite, 30),
    ("transcript-extension-matches-and-contracts", extension_consistency_suite, 100),
    ("diamond-map-diagonal-nonexpansive", diagonal_pairs_suite, 30),
    ("rescaled-oracle-keeps-factor", rescale_contraction_suite, 30),
)

SUITE_NAMES = tuple(name for name, _, _ in _SUITES)


def run_all(trials: int | None = None, seed: int = 0,
            mutate: str | None = None) -> list[dict]:
    """Run every suite with per-suite seeded generators; returns the reports.

    ``trials`` overrides every suite's trial count (``None`` keeps per-suite
    defaults); ``mutate`` names an intentional defect to inject — currently
    ``eliminate-off-by-one`` — and a correct build must then FAIL the
    elimination suite.
    """
    if mutate is not None and mutate not in _ELIMINATE_MUTANTS:
        raise ValueError(f"unknown mutation {mutate!r}; known: {', '.join(MUTATIONS)}")
    reports = []
    for idx, (name, fn, default) in enumerate(_SUITES):
        rng = np.random.default_rng([seed, idx])
        count = default if trials is None else trials
        kwargs = {}
        if name == "elimination-halves-and-keeps-neighborhood" and mutate is not None:
            kwargs["eliminate_fn"] = _ELIMINATE_MUTANTS[mutate]
        reports.append(fn(count, rng, **kwargs))
    return reports
