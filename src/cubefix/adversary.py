"""Non-expansive maps on a rotated square that hide their fixed point.

The domain is the diamond D inscribed in the unit square, with vertices
(1/2, 0), (1, 1/2), (1/2, 1), (0, 1/2).  All geometry is done in the rotated
coordinates ``U = x + y`` and ``V = y - x``, where D is the box
``U in [1/2, 3/2], V in [-1/2, 1/2]`` and the original l-infinity distance
becomes ``(|dU| + |dV|) / 2``.  The four sides sit at constant U (south-west
``U = 1/2``, north-east ``U = 3/2``) or constant V.

A map ``f_{delta, s}`` is pinned to an anchor ``s`` on the SW or NE side,
placed at Euclidean arc length ``arc`` from the side's southern vertex.  Away
from the anchor's V-line (``|V - V_s| >= sqrt(2) * delta``) the map slides
points a fixed Euclidean step ``delta`` along the side direction toward the
anchor's V; within that band it pulls points toward the anchor along constant
V with a shrink factor interpolating to 1 at the band edge, so the two branch
formulas agree on the boundary.  The anchor is the unique fixed point, and
the arithmetic is arranged so ``f(s) == s`` holds bitwise:

* the slide branch never references the anchor's coordinates (all maps with
  the same delta produce bit-identical answers there — this is what makes
  anchors in different strips indistinguishable from outside the strip);
* the band branch computes everything relative to the anchor, so at the
  anchor every term is exactly zero.

Extended to the unit square by composing with the metric projection onto D
(clamping U and V), these maps are non-expansive everywhere but any algorithm
must essentially locate the anchor's strip to find a point with a small
residual — the lower-bound family ``strip_family`` packs ``2 N`` of them with
pairwise-distant anchors and out-of-strip answers that agree exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InternalInvariantError
from .geometry import linf_dist
from .oracles import ContractionOracle

SQRT2 = math.sqrt(2.0)
SIDE_LENGTH = 1.0 / SQRT2

_UV_SLACK = 4e-12


class DiamondMap:
    """One hidden-anchor map ``f_{delta, s}`` on the diamond.

    ``side`` is ``"sw"`` or ``"ne"``; the anchor sits on that side at
    Euclidean distance ``arc`` from its southern vertex, at least ``delta``
    away from both vertices.  ``v_anchor`` may be given instead of ``arc`` to
    place the anchor at an exact V coordinate.
    """

    def __init__(self, delta: float, side: str, arc: float | None = None, *,
                 v_anchor: float | None = None) -> None:
        if not 0 < delta < 0.5:
            raise ValueError(f"delta must be in (0, 1/2), got {delta}")
        if side not in ("sw", "ne"):
            raise ValueError(f"side must be 'sw' or 'ne', got {side!r}")
        if (arc is None) == (v_anchor is None):
            raise ValueError("give exactly one of arc or v_anchor")
        if v_anchor is None:
            v_anchor = -0.5 + SQRT2 * arc
        else:
            arc = (v_anchor + 0.5) / SQRT2
        if not delta - 1e-9 <= arc <= SIDE_LENGTH - delta + 1e-9:
            raise ValueError(
                f"anchor arc {arc} not at least delta={delta} from both vertices")
        self.delta = float(delta)
        self.side = side
        self.arc = float(arc)
        self.v_anchor = float(v_anchor)
        self.u_side = 0.5 if side == "sw" else 1.5
        self.sx = 0.5 * (self.u_side - self.v_anchor)
        self.sy = 0.5 * (self.u_side + self.v_anchor)
        self.band = SQRT2 * self.delta       # |V - V_s| below this: pull branch
        self.step = self.delta / SQRT2       # per-coordinate slide offset
        if eval_diamond_map(self, (self.sx, self.sy)) != (self.sx, self.sy):
            raise InternalInvariantError("anchor is not exactly fixed")

    @property
    def anchor(self) -> tuple[float, float]:
        return (self.sx, self.sy)

    def __call__(self, p: Sequence[float]) -> tuple[float, float]:
        return eval_diamond_map(self, p)

    def __repr__(self) -> str:
        return f"DiamondMap(delta={self.delta}, side={self.side!r}, arc={self.arc})"


def eval_diamond_map(m: DiamondMap, p: Sequence[float]) -> tuple[float, float]:
    """Apply ``m`` to a point of the diamond (rejects points beyond tiny slack).

    Slide branch (``|V - V_s| >= sqrt(2) delta``): move by ``delta/sqrt(2)``
    per coordinate along the side direction toward the anchor's V-line; the
    anchor's own coordinates never enter, so all same-delta maps agree here
    bit-for-bit.  Pull branch: move to the anchor's V-line, shrinking the
    U-offset from the anchor by ``1 - delta + |V - V_s|/sqrt(2)`` (equal to 1
    exactly at the branch boundary).
    """
    x, y = float(p[0]), float(p[1])
    u, v = x + y, y - x
    if max(0.5 - u, u - 1.5, abs(v) - 0.5) > _UV_SLACK:
        raise ValueError(f"point {(x, y)} lies outside the diamond")
    dv = v - (m.sy - m.sx)
    if abs(dv) >= m.band:
        if dv > 0:
            return (x + m.step, y - m.step)
        return (x - m.step, y + m.step)
    du = u - (m.sx + m.sy)
    w = (1.0 - m.delta) + abs(dv) / SQRT2
    h = 0.5 * du * w
    return (m.sx + h, m.sy + h)


def project_to_diamond(p: Sequence[float]) -> tuple[float, float]:
    """Metric projection of the plane onto the diamond, in l-infinity.

    Clamps U and V to the diamond's box; since the original distance is
    ``(|dU| + |dV|)/2`` and each clamp is 1-d non-expansive, the projection is
    non-expansive.  Points already inside come back unchanged (bitwise).
    Example: ``(0, 0)`` projects to ``(0.25, 0.25)``.
    """
    x, y = float(p[0]), float(p[1])
    u, v = x + y, y - x
    cu = min(max(u, 0.5), 1.5)
    cv = min(max(v, -0.5), 0.5)
    if cu == u and cv == v:
        return (x, y)
    return (0.5 * (cu - cv), 0.5 * (cu + cv))


def extend_to_square(m: DiamondMap) -> ContractionOracle:
    """The composition ``f ∘ project`` as a non-expansive oracle on [0, 1]^2.

    Both factors are non-expansive, the image stays in the diamond, and the
    anchor remains the unique fixed point.
    """

    def fn(p):
        return eval_diamond_map(m, project_to_diamond(p))

    return ContractionOracle(fn, k=2, gamma=0.0, side=1.0, fixed_point=m.anchor,
                             name=f"diamond-{m.side}")


def check_diagonal_nonexpansive(fn: Callable[[Sequence[float]], Sequence[float]],
                                samples: int = 10_000, *,
                                rng: np.random.Generator | None = None,
                                domain: str = "square",
                                tol: float = 1e-12) -> dict:
    """Sample pairs along the two diagonal directions and check non-expansion.

    Diagonal moves (+-45 degrees) change exactly one of U, V, and the
    original l-infinity distance is the path metric over such moves, so
    non-expansion on diagonal pairs implies it in general (the staircase
    corner point stays inside the clamped box).  Returns a report with the
    worst observed ratio and up to ten witnesses of ratios above ``1 + tol``.
    """
    if domain not in ("square", "diamond"):
        raise ValueError(f"domain must be 'square' or 'diamond', got {domain!r}")
    rng = np.random.default_rng(0) if rng is None else rng
    max_ratio = 0.0
    witnesses = []
    drawn = 0
    while drawn < samples:
        if domain == "square":
            p = rng.uniform(0.0, 1.0, size=2)
            sgn = 1.0 if rng.integers(0, 2) else -1.0
            # feasible t for q = p + (t, sgn * t) inside the unit square
            if sgn > 0:
                lo, hi = max(-p[0], -p[1]), min(1.0 - p[0], 1.0 - p[1])
            else:
                lo, hi = max(-p[0], p[1] - 1.0), min(1.0 - p[0], p[1])
            t = rng.uniform(lo, hi)
            if abs(t) < 1e-9:
                continue
            q = np.array([p[0] + t, p[1] + sgn * t])
        else:
            u1 = rng.uniform(0.5, 1.5)
            v1 = rng.uniform(-0.5, 0.5)
            if rng.integers(0, 2):
                u2, v2 = rng.uniform(0.5, 1.5), v1
            else:
                u2, v2 = u1, rng.uniform(-0.5, 0.5)
            p = np.array([0.5 * (u1 - v1), 0.5 * (u1 + v1)])
            q = np.array([0.5 * (u2 - v2), 0.5 * (u2 + v2)])
            if linf_dist(p, q) < 1e-9:
                continue
        drawn += 1
        d0 = linf_dist(p, q)
        d1 = linf_dist(fn(tuple(p)), fn(tuple(q)))
        ratio = d1 / d0
        if ratio > max_ratio:
            max_ratio = ratio
        if ratio > 1.0 + tol and len(witnesses) < 10:
            witnesses.append({"p": [float(v) for v in p], "q": [float(v) for v in q],
                              "ratio": float(ratio)})
    return {"samples": samples, "max_ratio": float(max_ratio),
            "violations": witnesses, "passed": not witnesses}


class StripFamily:
    """The ``2 N`` hidden-anchor maps over N equal V-strips of the diamond.

    Strip ``x`` (1-based) covers ``V in [-1/2 + (x-1)/N, -1/2 + x/N]``.  Its
    two maps anchor just inside the strip's V-range: ``s_x`` on the SW side
    at the low edge plus the band width, ``t_x`` on the NE side at the high
    edge minus the band width.  With ``delta < 1/(2 sqrt(2) N)`` the two
    anchors of a strip are further than 1/2 apart in l-infinity, while any
    query whose projection lies outside the strip gets bit-identical answers
    from ``s_x`` and ``t_x`` — distinguishing them forces queries into the
    strip.
    """

    def __init__(self, N: int, delta: float | None = None) -> None:
        if N < 1 or (N & (N - 1)) != 0:
            raise ValueError(f"N must be a power of two, got {N}")
        limit = 1.0 / (2.0 * SQRT2 * N)
        if delta is None:
            delta = 0.5 * limit
        if not 0 < delta < limit:
            raise ValueError(f"delta must be in (0, {limit}) for N={N}, got {delta}")
        self.N = N
        self.delta = float(delta)
        band = SQRT2 * self.delta
        self.maps: list[DiamondMap] = []
        for x in range(1, N + 1):
            v_lo = -0.5 + (x - 1) / N
            v_hi = -0.5 + x / N
            self.maps.append(DiamondMap(self.delta, "sw", v_anchor=v_lo + band))
            self.maps.append(DiamondMap(self.delta, "ne", v_anchor=v_hi - band))

    def pair(self, x: int) -> tuple[DiamondMap, DiamondMap]:
        """The (s_x, t_x) pair for strip ``x`` (1-based)."""
        if not 1 <= x <= self.N:
            raise ValueError(f"strip index must be in [1, {self.N}], got {x}")
        return self.maps[2 * (x - 1)], self.maps[2 * (x - 1) + 1]

    def strip_v_range(self, x: int) -> tuple[float, float]:
        return (-0.5 + (x - 1) / self.N, -0.5 + x / self.N)


def strip_family(N: int, delta: float | None = None) -> StripFamily:
    """Construct the lower-bound family; see :class:`StripFamily`."""
    return StripFamily(N, delta)
