"""Total search: an eps-fixed point or proof the contraction claim is false.

The promise-free variant accepts *any* oracle ``f`` on the unit cube together
with a claimed margin ``gamma`` and returns one of two certificates:

* a point with residual at most ``eps`` (the promise solver's answer), or
* a pair of queries witnessing ``|f(q1) - f(q2)| > (1 - gamma) |q1 - q2|``.

It runs the promise solver on ``f`` itself.  A point with residual at most
``eps`` is a correct answer whatever ``f`` is, so it stands as returned.  Only
if the solver fails is the run's part of ``f``'s transcript scanned, once.
The scan then finds a pair: ``extend_consistent`` is the converse direction,
so a violation-free transcript is consistent with a genuine contraction, on
which the solver cannot fail.  The extension reproduces every recorded answer
exactly, via

    ``f(x)_i = min(1, min_t ((1 - gamma) |x - q^t| + a^t_i))``.

Float model: the scan decides every pair exactly on the recorded doubles.  A
contraction evaluated in floats answers within a few ulps of the exact map;
on the grid that error is far below the elimination's slack of 2 grid units,
so the fixed point's neighbourhood stays among the candidates, the solver
returns a fixed point, and rounding noise never becomes a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalInvariantError
from .geometry import RealPoint, linf_dist
from .oracles import ContractionOracle, QueryTranscript
from .solver import DEFAULT_CANDIDATE_CAP, OUTCOME_FIXED_POINT, SolveResult, solve_unit_cube

__all__ = [
    "ViolationCertificate", "TotalResult", "scan_violations",
    "extend_consistent", "solve_total",
]

Entry = tuple[RealPoint, RealPoint]


@dataclass(slots=True)
class ViolationCertificate:
    """A pair of oracle queries contradicting the claimed contraction factor.

    Indices are 1-based positions in the transcript, ``t1 < t2``; the pair
    satisfies ``|a1 - a2| > (1 - gamma) * |q1 - q2|`` exactly (l-infinity
    throughout).  ``lhs`` and ``rhs`` are the nearest floats to the two sides,
    so ``lhs >= rhs``.
    """

    t1: int
    t2: int
    q1: RealPoint
    q2: RealPoint
    a1: RealPoint
    a2: RealPoint
    lhs: float
    rhs: float

    def to_json_obj(self) -> dict:
        return {"t1": self.t1, "t2": self.t2,
                "q1": list(self.q1), "q2": list(self.q2),
                "a1": list(self.a1), "a2": list(self.a2),
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(slots=True)
class TotalResult:
    """Outcome of a total-search run: exactly one certificate is present."""

    kind: str  # "fixed-point" or "violation"
    result: SolveResult | None
    certificate: ViolationCertificate | None
    queries: int

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "queries": self.queries,
            "certificate": None if self.certificate is None else self.certificate.to_json_obj(),
            "result": None if self.result is None else self.result.to_json_obj(),
        }


def _as_entries(transcript: QueryTranscript | Iterable[Entry]) -> list[Entry]:
    return [(tuple(float(v) for v in q), tuple(float(v) for v in a)) for q, a in transcript]


def _exact_dist(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return max(abs(u - v) for u, v in zip(x, y))


def scan_violations(transcript: QueryTranscript | Iterable[Entry],
                    gamma: float) -> ViolationCertificate | None:
    """First pair violating the claimed factor, or None if the transcript is consistent.

    Pairs are visited in the order a growing transcript would discover them:
    by the later index ``t2``, then by ``t1 < t2``.  The strict comparison
    ``|a1 - a2| > (1 - gamma) |q1 - q2|`` is decided exactly, in rationals on
    the recorded doubles and the double ``gamma``, so neither a certificate
    nor a None carries rounding of its own.  Example: two identity answers
    ``(0,0) -> (0,0)`` and ``(1,1) -> (1,1)`` under a claimed gamma of 0.5
    give lhs 1 > rhs 0.5.
    """
    entries = _as_entries(transcript)
    exact = [(tuple(map(Fraction, q)), tuple(map(Fraction, a))) for q, a in entries]
    factor = 1 - Fraction(gamma)
    for t2 in range(2, len(exact) + 1):
        q2, a2 = exact[t2 - 1]
        for t1 in range(1, t2):
            q1, a1 = exact[t1 - 1]
            lhs, rhs = _exact_dist(a1, a2), factor * _exact_dist(q1, q2)
            if lhs > rhs:
                (fq1, fa1), (fq2, fa2) = entries[t1 - 1], entries[t2 - 1]
                return ViolationCertificate(t1, t2, fq1, fq2, fa1, fa2, float(lhs), float(rhs))
    return None


def extend_consistent(transcript: QueryTranscript | Iterable[Entry], gamma: float) -> ContractionOracle:
    """Extend a violation-free transcript to a contraction on the whole cube.

    Returns an oracle computing ``f(x)_i = min(1, min_t ((1 - gamma) *
    |x - q^t| + a^t_i))``: a pointwise minimum of ``(1 - gamma)``-Lipschitz
    functions, hence itself a ``(1 - gamma)``-contraction, and equal to
    ``a^t`` at every recorded ``q^t`` exactly.  A single entry
    ``(1,1) -> (0.75, 0.75)`` at gamma 0.5 extends to ``f(x)_i =
    min(1, 0.5 |x - (1,1)| + 0.75)``.  An empty or violating transcript is a
    usage error: such a transcript has no consistent extension.
    """
    if not 0 <= gamma <= 1:
        raise ValueError(f"extension needs gamma in [0, 1], got {gamma}")
    entries = _as_entries(transcript)
    if not entries:
        raise ValueError("cannot extend an empty transcript")
    k = len(entries[0][0])
    for q, a in entries:
        if len(q) != k or len(a) != k:
            raise ValueError(f"transcript entries must have dimension {k}")
        if min(min(q), min(a)) < -1e-9 or max(max(q), max(a)) > 1 + 1e-9:
            raise ValueError("transcript points must lie in the unit cube")
    cert = scan_violations(entries, gamma)
    if cert is not None:
        raise ValueError(
            f"transcript violates the claimed factor at pair ({cert.t1}, {cert.t2}): "
            f"{cert.lhs} > {cert.rhs}; no consistent extension exists")
    factor = 1.0 - gamma

    def fn(x: RealPoint) -> tuple[float, ...]:
        out = []
        for i in range(k):
            best = min(factor * linf_dist(x, q) + a[i] for q, a in entries)
            out.append(min(1.0, best))
        return tuple(out)

    return ContractionOracle(fn, k, gamma, side=1.0, name="consistent-extension")


def solve_total(f: ContractionOracle, eps: float, gamma: float, *,
                cap: int = DEFAULT_CANDIDATE_CAP) -> TotalResult:
    """Run the promise solver on an untrusted oracle; certify a violation if it fails.

    The solver queries ``f`` directly, so on any map the run makes the same
    queries as :func:`~cubefix.solver.solve_unit_cube`.  If it does not
    return a fixed point, the run's part of ``f.transcript`` is scanned once
    and the first violating pair is the certificate.  Certificate indices
    count from the run's first query, so ``f`` may already have answered
    queries.  A failed run whose transcript admits no violating pair
    contradicts the extension lemma and raises
    :class:`InternalInvariantError`.

    Trade-off: on a broken map the run may spend up to the solver's
    ``query_bound`` queries before it certifies, rather than stopping at the
    first violating pair; the bound still holds.
    """
    start = f.queries
    res = solve_unit_cube(f, eps, gamma, cap=cap)
    if res.outcome == OUTCOME_FIXED_POINT:
        return TotalResult("fixed-point", res, None, res.queries)
    cert = scan_violations(f.transcript[start:], gamma)
    if cert is None:
        raise InternalInvariantError(
            f"promise solver failed ({res.outcome}) but the transcript of "
            f"{res.queries} queries admits no pair violating gamma={gamma}")
    return TotalResult("violation", None, cert, res.queries)
