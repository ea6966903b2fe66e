"""Total search: an eps-fixed point or proof the contraction claim is false.

The promise-free variant accepts *any* oracle ``f`` on the unit cube together
with a claimed margin ``gamma`` and returns one of two certificates:

* a point with residual at most ``eps`` (the promise solver's answer), or
* a pair of queries witnessing ``|f(q1) - f(q2)| > (1 - gamma) |q1 - q2|``.

It simply runs the elimination solver and, after every oracle call, scans the
new entry of the oracle's own transcript against the run's earlier ones.  On a
genuine contraction no pair can ever violate, so the run is query-for-query
identical to :func:`~cubefix.solver.solve_unit_cube`; on a broken promise the
solver either stops at a valid answer anyway (which is a correct total-search
output) or the scan fires, and a solver failure without a violating pair in
the transcript is impossible.

``extend_consistent`` is the converse direction: any finite violation-free
transcript extends to a full ``(1 - gamma)``-contraction on the cube that
reproduces every recorded answer exactly, via

    ``f(x)_i = min(1, min_t ((1 - gamma) |x - q^t| + a^t_i))``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    satisfies ``lhs > rhs`` where ``lhs = |a1 - a2|`` and
    ``rhs = (1 - gamma) * |q1 - q2|`` (l-infinity throughout).
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


def _scan_entry(entries: Sequence[Entry], start: int, t2: int,
                gamma: float) -> ViolationCertificate | None:
    """Check entry ``t2`` against every earlier one, in order.

    Indices are 1-based and count from ``entries[start]``, so a run that
    begins part-way through a transcript numbers its own queries from 1.
    """
    q2, a2 = entries[start + t2 - 1]
    for t1 in range(1, t2):
        q1, a1 = entries[start + t1 - 1]
        lhs = linf_dist(a1, a2)
        rhs = (1.0 - gamma) * linf_dist(q1, q2)
        if lhs > rhs:
            return ViolationCertificate(t1, t2, q1, q2, a1, a2, lhs, rhs)
    return None


def scan_violations(transcript: QueryTranscript | Iterable[Entry],
                    gamma: float) -> ViolationCertificate | None:
    """First pair violating the claimed factor, or None if the transcript is consistent.

    Pairs are visited in the order a growing transcript would discover them:
    by the later index ``t2``, then by ``t1 < t2``.  The comparison is
    strict, in float arithmetic on the recorded values.  Example: two
    identity answers ``(0,0) -> (0,0)`` and ``(1,1) -> (1,1)`` under a
    claimed gamma of 0.5 give lhs 1 > rhs 0.5.
    """
    entries = _as_entries(transcript)
    for t2 in range(2, len(entries) + 1):
        cert = _scan_entry(entries, 0, t2, gamma)
        if cert is not None:
            return cert
    return None


def extend_consistent(transcript: QueryTranscript | Iterable[Entry], gamma: float,
                      k: int | None = None) -> ContractionOracle:
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
    if k is None:
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


class _ViolationFound(Exception):
    def __init__(self, certificate: ViolationCertificate):
        super().__init__(f"contraction claim violated by queries "
                         f"{certificate.t1} and {certificate.t2}")
        self.certificate = certificate


def solve_total(f: ContractionOracle, eps: float, gamma: float, *,
                cap: int = DEFAULT_CANDIDATE_CAP) -> TotalResult:
    """Run the promise solver on an untrusted oracle, scanning for violations.

    Wraps ``f`` so each query, once ``f`` has recorded it, is checked against
    the run's earlier entries of ``f.transcript`` before the solver sees the
    answer; the first violating pair aborts the run and is returned as the
    certificate.  Certificate indices count from the run's first query, so
    ``f`` may already have answered queries.  If no pair ever violates, the
    solver's fixed point stands (on a transcript consistent with some
    ``(1 - gamma)``-contraction the solver cannot fail, so a solver failure
    here without a violating pair raises :class:`InternalInvariantError`).
    """
    start = f.queries

    def fn(x: RealPoint) -> RealPoint:
        y = f(x)
        cert = _scan_entry(f.transcript, start, f.queries - start, gamma)
        if cert is not None:
            raise _ViolationFound(cert)
        return y

    watched = ContractionOracle(fn, f.k, gamma, side=f.side, name=f"total({f.name})")
    try:
        res = solve_unit_cube(watched, eps, gamma, cap=cap)
    except _ViolationFound as exc:
        return TotalResult("violation", None, exc.certificate, f.queries - start)
    if res.outcome == OUTCOME_FIXED_POINT:
        return TotalResult("fixed-point", res, None, res.queries)
    cert = scan_violations(f.transcript[start:], gamma)
    if cert is not None:
        return TotalResult("violation", None, cert, f.queries - start)
    raise InternalInvariantError(
        f"promise solver failed ({res.outcome}) but the transcript of "
        f"{f.queries - start} queries admits no pair violating gamma={gamma}")
