"""Contraction oracles over the cube, instance families, and the grid view.

A :class:`ContractionOracle` wraps an arbitrary map ``f: [0, side]^k ->
[0, side]^k`` declared to satisfy ``|f(x) - f(y)| <= (1 - gamma) * |x - y|``
in the l-infinity norm (``gamma = 0`` means only non-expansive is promised).
Every query is domain-checked and recorded; the query counter is the
transcript length by construction.

The parameter plumbing used by the solver:

* :class:`GridView`: the unit-cube oracle seen on the grid ``[0, n]^k`` with
  ``n = ceil(16 / (gamma * eps))``, ``g(a) = n * (scale * f(a / n))``.  When
  ``gamma < eps/2`` the view uses ``scale = 1 - eps/2``, a genuine
  ``eps/2``-contraction whose eps/2-fixed points are eps-fixed points of
  ``f``; otherwise ``scale = 1``.  A ``16/gamma``-fixed point of the view
  scales back to an eps-fixed point of ``f``.  The view records nothing
  itself: each grid query is exactly one query to ``f``.
* ``strong_to_weak``: a weak ``(eps * gamma)``-fixed point of a
  ``(1 - gamma)``-contraction is within ``eps`` of the true fixed point.

Affine instances ``x -> (1 - gamma) * M x + c`` carry their closed-form fixed
point, which the view scales onto the grid when it does not shrink the map;
the containment checks in the test-suite rely on it.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geometry import RealPoint, linf_dist


class QueryTranscript:
    """Ordered record of (query, answer) pairs, both tuples of floats.

    Kept flat as ``2k`` doubles per entry, 8 bytes a coordinate instead of a
    float object and two tuples per entry; ``t[i]``, ``t[i:j]`` rebuild pairs.
    """

    def __init__(self) -> None:
        self._flat, self._k = array("d"), 0

    def append(self, query: RealPoint, answer: RealPoint) -> None:
        if len(answer) != len(query) or self._k not in (0, len(query)):
            raise ValueError("transcript entries must all have one dimension")
        self._k = len(query)
        self._flat.extend(query + answer)

    def __len__(self) -> int:
        return len(self._flat) // (2 * self._k) if self._k else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        k, lo = self._k, 2 * self._k * range(len(self))[i]
        return tuple(self._flat[lo:lo + k]), tuple(self._flat[lo + k:lo + 2 * k])

    @property
    def entries(self) -> list[tuple[RealPoint, RealPoint]]:
        """Every pair, oldest first, in a new list."""
        return self[:]


class ContractionOracle:
    """Query-counted black box for a map of ``[0, side]^k`` into itself.

    ``gamma`` is the declared contraction margin: the map promises factor
    ``1 - gamma``.  ``gamma <= 0`` declares a map that is only promised
    non-expansive.  ``fixed_point`` carries a closed-form fixed point when one
    is known (used by invariant checks, never by the solver).
    """

    def __init__(
        self,
        fn: Callable[[RealPoint], Sequence[float]],
        k: int,
        gamma: float,
        side: float = 1.0,
        fixed_point: RealPoint | None = None,
        name: str = "oracle",
    ) -> None:
        if k < 1:
            raise ValueError(f"dimension must be at least 1, got {k}")
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        if gamma > 1:
            raise ValueError(f"contraction margin gamma must be at most 1, got {gamma}")
        self._fn = fn
        self.k = k
        self.gamma = float(gamma)
        self.side = float(side)
        self.fixed_point = None if fixed_point is None else tuple(float(v) for v in fixed_point)
        self.name = name
        self.transcript = QueryTranscript()
        self._tol = 1e-9 * (1.0 + self.side)

    @property
    def queries(self) -> int:
        """Number of queries made so far (== transcript length)."""
        return len(self.transcript)

    def _check_point(self, x: Sequence[float], what: str) -> RealPoint:
        xs = tuple(float(v) for v in x)
        if len(xs) != self.k:
            raise ValueError(f"{what} has dimension {len(xs)}, oracle expects {self.k}")
        for v in xs:
            if not (-self._tol <= v <= self.side + self._tol):
                raise ValueError(f"{what} {xs} outside [0, {self.side}]^{self.k}")
        return xs

    def __call__(self, x: Sequence[float]) -> RealPoint:
        xs = self._check_point(x, "query")
        ans = self._check_point(self._fn(xs), "answer")
        self.transcript.append(xs, ans)
        return ans

    def probe(self, x: Sequence[float]) -> RealPoint:
        """Evaluate without recording.  For instance validation and tests only;
        the solver never calls this (query counts would be meaningless).
        Only this oracle's own record is skipped: a map that queries another
        oracle still records there, so total search's watcher, whose map
        queries the caller's oracle, is never probed."""
        xs = self._check_point(x, "query")
        return self._check_point(self._fn(xs), "answer")


def _affine_fixed_point(A: np.ndarray, b: np.ndarray, side: float) -> RealPoint | None:
    """Exact fixed point of ``x -> A x + b`` when ``A`` strictly contracts.

    Row sums of ``|A|`` strictly below 1 make ``I - A`` nonsingular; the
    solution of ``(I - A) x = b`` is the unique fixed point and must lie in
    the cube for a self-map.  Returns None when ``A`` is not a strict
    contraction (fixed points then need not be unique).
    """
    if np.abs(A).sum(axis=1).max() >= 1.0 - 1e-12:
        return None
    k = len(b)
    x = np.linalg.solve(np.eye(k) - A, b)
    if np.any(x < -1e-6) or np.any(x > side + 1e-6):
        return None
    return tuple(float(v) for v in x)


class AffineOracle(ContractionOracle):
    """Map ``x -> (1 - gamma) * (M x) + c`` with ``|M| row sums <= 1``.

    The fixed point solves ``(I - (1 - gamma) M) x = c`` and is computed
    exactly at construction when ``gamma > 0`` (the system is then strictly
    diagonally dominated in the induced norm, hence nonsingular).
    """

    def __init__(self, M: Sequence[Sequence[float]], c: Sequence[float], gamma: float,
                 side: float = 1.0, name: str = "affine") -> None:
        M = np.asarray(M, dtype=float)
        c = np.asarray(c, dtype=float)
        k = c.shape[0]
        if M.shape != (k, k):
            raise ValueError(f"M must be {k}x{k}, got {M.shape}")
        row_sums = np.abs(M).sum(axis=1)
        if np.any(row_sums > 1.0 + 1e-12):
            raise ValueError(f"matrix rows must have absolute sum <= 1, got max {row_sums.max()}")
        factor = 1.0 - gamma
        lo = factor * side * np.minimum(M, 0.0).sum(axis=1) + c
        hi = factor * side * np.maximum(M, 0.0).sum(axis=1) + c
        if np.any(lo < -1e-12) or np.any(hi > side + 1e-12):
            raise ValueError("affine map does not send the cube into itself")
        self.M = M
        self.c = c
        A = factor * M
        super().__init__(self._eval, k, gamma, side=side,
                         fixed_point=_affine_fixed_point(A, c, side), name=name)

    def _eval(self, x: RealPoint) -> np.ndarray:
        return (1.0 - self.gamma) * (self.M @ np.asarray(x)) + self.c


def make_affine(M: Sequence[Sequence[float]], c: Sequence[float], gamma: float,
                side: float = 1.0) -> AffineOracle:
    """Validated affine instance with its exact fixed point attached."""
    return AffineOracle(M, c, gamma, side=side)


def strong_to_weak(eps: float, gamma: float) -> tuple[float, float]:
    """Parameters whose weak solution is a strong one.

    If ``|f(x) - x| <= eps * gamma`` then ``|x - Fix(f)| <= eps``: the
    fixed-point distance is at most the residual divided by gamma.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"strong variant needs a genuine contraction, got gamma={gamma}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps * gamma, gamma


def grid_side(gamma: float, eps: float) -> int:
    """``n = ceil(16 / (gamma * eps))``, computed exactly from the binary floats."""
    if not 0 < gamma <= 1 or not 0 < eps:
        raise ValueError(f"need 0 < gamma <= 1 and eps > 0, got gamma={gamma}, eps={eps}")
    return math.ceil(Fraction(16) / (Fraction(gamma) * Fraction(eps)))


class GridView:
    """The unit-cube oracle ``f`` seen on the grid ``[0, n]^k`` the solver runs on.

    Owns the routing rule: when ``gamma < eps/2`` (in particular whenever
    ``f`` is only promised non-expansive) the view shrinks ``f`` by
    ``scale = 1 - eps/2`` and works at ``eps' = gamma' = eps/2``; otherwise
    ``scale = 1`` and ``(eps', gamma') = (eps, gamma)``.  With
    ``n = grid_side(gamma', eps')`` it evaluates ``g(a) = n * (scale *
    f(a / n))``, one query to ``f`` per call.  ``f`` checks and records every
    query and answer, so the view has no transcript of its own; an off-grid
    query is rejected by ``f``.  Examples: gamma = eps = 1/2 gives n = 64 and
    ``g(a) = 64 f(a / 64)``; the identity at gamma = 0, eps = 1/2 is routed
    to n = 256 and ``g(a) = 256 * (0.75 * a / 256)``.

    ``fixed_point`` is ``n`` times ``f``'s known fixed point when the view is
    not routed, and None when it is (the shrunk map moves the fixed point).
    """

    def __init__(self, f: ContractionOracle, eps: float, gamma: float) -> None:
        if f.side != 1.0:
            raise ValueError("the grid view starts from an oracle on the unit cube")
        if not 0 < eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        if gamma > 1:
            raise ValueError(f"gamma must be at most 1, got {gamma}")
        self.routed = gamma < eps / 2.0
        if self.routed:
            self._scale = 1.0 - eps / 2.0
            eps = gamma = eps / 2.0
        else:
            self._scale = 1.0
        self._f = f
        self.k = f.k
        self.gamma = gamma
        self.n = grid_side(gamma, eps)
        self.side = float(self.n)
        self.fixed_point = (None if self.routed or f.fixed_point is None
                            else tuple(self.n * v for v in f.fixed_point))

    def _lift(self, y: RealPoint) -> RealPoint:
        # n * (scale * v), not (n * scale) * v: the two round differently.
        n, scale = self.n, self._scale
        return tuple(n * (scale * v) for v in y)

    def __call__(self, a: Sequence[float]) -> RealPoint:
        return self._lift(self._f(tuple(v / self.n for v in a)))

    def probe(self, a: Sequence[float]) -> RealPoint:
        """Evaluate through ``f.probe``: nothing is recorded."""
        return self._lift(self._f.probe(tuple(v / self.n for v in a)))


def sampled_contraction_check(f: ContractionOracle, pairs: int = 10_000,
                              rng: np.random.Generator | None = None,
                              tol: float = 1e-12) -> dict:
    """Spot-check the declared contraction factor on random pairs.

    Draws ``pairs`` uniform pairs from the cube and verifies
    ``|f(x) - f(y)| <= (1 - gamma) |x - y| + tol`` via unrecorded probes.
    Returns a report dict with the worst excess and up to ten witnesses.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    factor = 1.0 - max(f.gamma, 0.0)
    worst = 0.0
    witnesses = []
    for _ in range(pairs):
        x = tuple(rng.uniform(0.0, f.side, size=f.k))
        y = tuple(rng.uniform(0.0, f.side, size=f.k))
        excess = linf_dist(f.probe(x), f.probe(y)) - factor * linf_dist(x, y)
        if excess > worst:
            worst = excess
        if excess > tol and len(witnesses) < 10:
            witnesses.append({"x": list(x), "y": list(y), "excess": excess})
    return {"pairs": pairs, "worst_excess": worst, "violations": witnesses,
            "passed": not witnesses}


# ---------------------------------------------------------------------------
# Instance families


@dataclass
class InstanceSpec:
    """Serializable description of a unit-cube test instance."""

    family: str
    k: int
    gamma: float
    epsilon: float
    seed: int
    params: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"family": self.family, "k": self.k, "gamma": self.gamma,
                "epsilon": self.epsilon, "seed": self.seed, "params": self.params}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InstanceSpec":
        return cls(family=obj["family"], k=int(obj["k"]), gamma=float(obj["gamma"]),
                   epsilon=float(obj["epsilon"]), seed=int(obj["seed"]),
                   params=dict(obj.get("params", {})))

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "InstanceSpec":
        return cls.from_json_obj(json.loads(text))


def _random_affine_params(k: int, gamma: float, rng: np.random.Generator) -> dict:
    """Random row-normalised matrix (signed entries) and a feasible offset."""
    M = rng.normal(size=(k, k))
    scale = rng.uniform(0.3, 1.0, size=k)
    M = M * (scale / np.abs(M).sum(axis=1))[:, None]
    factor = 1.0 - gamma
    lo = factor * np.minimum(M, 0.0).sum(axis=1)
    hi = factor * np.maximum(M, 0.0).sum(axis=1)
    c = rng.uniform(-lo, 1.0 - hi)
    return {"M": M.tolist(), "c": c.tolist()}


def build_instance(spec: InstanceSpec) -> ContractionOracle:
    """Construct the oracle an :class:`InstanceSpec` describes.

    Families: ``affine`` (random signed matrix), ``constant``, ``reflection``
    (the slow-Picard showcase ``x -> (1-gamma)(-x) + c`` with fixed point at
    the cube centre), ``identity`` (non-expansive, no contraction margin) and
    ``diamond`` (the rotated-square adversary map extended to the unit square;
    only non-expansive, k = 2).  Parameters missing from ``spec.params`` are
    drawn deterministically from ``spec.seed`` and written back into
    ``spec.params`` so serialised instances round-trip exactly.
    """
    rng = np.random.default_rng(spec.seed)
    fam, k, gamma = spec.family, spec.k, spec.gamma
    if fam == "affine":
        if not spec.params:
            spec.params = _random_affine_params(k, gamma, rng)
        return AffineOracle(spec.params["M"], spec.params["c"], gamma, name="affine")
    if fam == "constant":
        if not spec.params:
            spec.params = {"c": rng.uniform(0.0, 1.0, size=k).tolist()}
        c = spec.params["c"]
        return AffineOracle(np.zeros((k, k)), c, gamma, name="constant")
    if fam == "reflection":
        if gamma <= 0:
            raise ValueError("reflection family needs gamma > 0")
        if not spec.params:
            spec.params = {"c": [1.0 - gamma / 2.0] * k}
        return AffineOracle(-np.eye(k), spec.params["c"], gamma, name="reflection")
    if fam == "identity":
        return AffineOracle(np.eye(k), np.zeros(k), 0.0, name="identity")
    if fam == "diamond":
        from .adversary import DiamondMap, extend_to_square

        if k != 2:
            raise ValueError("diamond family is two-dimensional")
        if gamma > 0:
            raise ValueError("diamond family is only non-expansive; use gamma = 0")
        if not spec.params:
            delta = float(rng.uniform(0.03, 0.25))
            side_flag = str(rng.choice(["sw", "ne"]))
            arc_len = 1.0 / math.sqrt(2.0)
            arc = float(rng.uniform(delta, arc_len - delta))
            spec.params = {"delta": delta, "side": side_flag, "arc": arc}
        m = DiamondMap(spec.params["delta"], spec.params["side"], spec.params["arc"])
        return extend_to_square(m)
    raise ValueError(f"unknown instance family {fam!r}")


def make_instance(family: str, k: int, gamma: float, eps: float, seed: int) -> tuple[InstanceSpec, ContractionOracle]:
    """Seeded instance: returns the filled-in spec and its oracle."""
    spec = InstanceSpec(family=family, k=k, gamma=gamma, epsilon=eps, seed=seed)
    oracle = build_instance(spec)
    return spec, oracle
