"""The closed loop, the correctness checks and the metrics of one run.

Imported only after ``run.py`` has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
from fractions import Fraction

from cubefix import solver, total
from cubefix.solver import OUTCOME_FIXED_POINT, picard_baseline

from instances import STRONG, TOTAL, WEAK
from tracing import summarize

# Spans that must fire on a workload; a trace point that records nothing means
# the library no longer calls what the benchmark wraps.
EXPECTED_SPANS = {
    "k3-descent": ("balanced.select", "balanced.coverage", "geometry.even_grid",
                   "solver.init", "solver.eliminate", "oracles.call"),
    "k12-fine": ("balanced.select", "balanced.exact", "geometry.even_grid",
                 "solver.init", "solver.eliminate", "oracles.call"),
    "many-small": ("balanced.select", "balanced.exact", "geometry.even_grid",
                   "solver.init", "solver.eliminate", "oracles.call", "total.solve"),
}

# Spans that must not fire on a workload: k12-fine has no descent.
FORBIDDEN_SPANS = {"k12-fine": ("balanced.coverage",)}

# The known defect: total search's float comparison issues certificates on
# tight contractions (ROADMAP open item 2), and some of them also fail the
# exact check.  These solves run in a probe outside the timed loop; the probe
# reports them and fails the run on any other reason.
KNOWN_DEFECT = {"false_cert", "cert_inexact"}


def weak_params(inst, mode) -> tuple[float, float]:
    """The (eps, gamma) of the weak solve a mode runs: strong mode targets eps * gamma."""
    return (inst.eps * inst.gamma, inst.gamma) if mode == STRONG else (inst.eps, inst.gamma)


def paper_bound(k: int, eps: float, gamma: float) -> int:
    """``ceil(k log2(n/2 + 1)) + 1`` at the grid the unit-cube solve uses.

    Mirrors the routing of ``solve_unit_cube``: below ``gamma = eps/2`` the
    map is reduced to an ``eps/2``-contraction first.
    """
    if gamma < eps / 2.0:
        eps = gamma = eps / 2.0
    n = math.ceil(Fraction(16) / (Fraction(gamma) * Fraction(eps)))
    return ((n // 2 + 1) ** k - 1).bit_length() + 1


# ---------------------------------------------------------------------------
# The closed loop


def solve_one(inst, mode, f, on_round=None):
    """One solve in ``mode``, called through the module attributes the tracer patches."""
    if mode == WEAK:
        return solver.solve_unit_cube(f, inst.eps, inst.gamma, on_round=on_round)
    if mode == STRONG:
        return solver.solve_strong(f, inst.eps, inst.gamma, on_round=on_round)
    return total.solve_total(f, inst.eps, inst.gamma)


def run_pass(instances, oracles, tracer=None) -> list[tuple]:
    """One solve per (instance, mode), each timed on its own.

    Returns ``(index, mode, seconds, queries_before, queries_after, result)``
    per solve; a solve that raised has the exception as its result.
    """
    ops = []
    for i, inst in enumerate(instances):
        f = oracles[i]
        for mode in inst.modes:
            q0 = f.queries
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = solve_one(inst, mode, f)
                else:
                    with tracer.span("bench.solve", mode=mode):
                        out = solve_one(inst, mode, f, tracer.on_round)
            except Exception as exc:  # a failed operation, counted and reported
                out = exc
            ops.append((i, mode, time.perf_counter() - t0, q0, f.queries, out))
    return ops


def run_passes(instances, oracles, seconds: float):
    """Whole passes until ``seconds`` have gone by; returns the solves."""
    ops = []
    start = time.perf_counter()
    while True:
        ops += run_pass(instances, oracles)
        if time.perf_counter() - start >= seconds:
            return ops


def run_traced(instances, oracles, seconds: float, tracer):
    """Alternate untraced and traced passes until ``seconds`` have gone by.

    Alternating keeps drift in machine speed out of the tracing overhead, which
    compares the median traced pass with the median untraced one.  Returns the
    untraced solves, the traced solves and the overhead.
    """
    base_ops, ops, base_s, traced_s = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        base_ops += run_pass(instances, oracles)
        t1 = time.perf_counter()
        with tracer.installed():
            ops += run_pass(instances, oracles, tracer)
        base_s.append(t1 - t0)
        traced_s.append(time.perf_counter() - t1)
        if time.perf_counter() - start >= seconds:
            return base_ops, ops, statistics.median(traced_s) / statistics.median(base_s) - 1.0


# ---------------------------------------------------------------------------
# Correctness checks


def outcome_key(inst, mode, out) -> tuple:
    """What a solve returned: (label, mode, outcome, answer, queries)."""
    if isinstance(out, Exception):
        return inst.label, mode, f"exception:{type(out).__name__}", None, None
    if mode == TOTAL:
        if out.kind == "violation":
            c = out.certificate
            return inst.label, mode, out.kind, (c.t1, c.t2, c.lhs, c.rhs), out.queries
        return inst.label, mode, out.kind, out.result.answer, out.queries
    return inst.label, mode, out.outcome, out.answer, out.queries


def _linf(x, y) -> float:
    return max(abs(a - b) for a, b in zip(x, y))


def _exact_violation(cert, gamma: float) -> bool:
    lhs = max(abs(Fraction(a) - Fraction(b)) for a, b in zip(cert.a1, cert.a2))
    dist = max(abs(Fraction(a) - Fraction(b)) for a, b in zip(cert.q1, cert.q2))
    return lhs > (1 - Fraction(gamma)) * dist


def check(inst, mode, f, q0: int, q1: int, out) -> list[str]:
    """Failure reasons of one operation; empty when it is correct.

    ``solve`` raises ``InternalInvariantError`` before it exceeds its own
    ``query_bound`` and ``solve_unit_cube`` raises it on a query-count
    mismatch, so today a broken bound shows as an exception.  ``over_bound``
    and ``query_count`` check the same from outside, against the paper's
    formula and the oracle's transcript, in case those library checks change.
    """
    if isinstance(out, Exception):
        return [f"exception:{type(out).__name__}"]
    eps, gamma = weak_params(inst, mode)
    reasons = []
    if out.queries > paper_bound(inst.k, eps, gamma):
        reasons.append("over_bound")
    if out.queries != q1 - q0:
        reasons.append("query_count")
    if mode == TOTAL and out.kind == "violation":
        cert = out.certificate
        recorded = f.transcript.entries[q0:q1]
        if (not 1 <= cert.t1 < cert.t2 <= len(recorded)
                or recorded[cert.t1 - 1] != (cert.q1, cert.a1)
                or recorded[cert.t2 - 1] != (cert.q2, cert.a2)):
            reasons.append("cert_unrecorded")
        if not _exact_violation(cert, inst.gamma):
            reasons.append("cert_inexact")
        if inst.contraction:
            reasons.append("false_cert")
        return reasons
    res = out.result if mode == TOTAL else out
    if res.outcome != OUTCOME_FIXED_POINT:
        if inst.contraction:
            reasons.append("false_violation")
        return reasons
    x = res.answer
    if _linf(f.probe(x), x) > eps:
        reasons.append("residual")
    if mode == STRONG and _linf(x, inst.fixed_point) > inst.eps:
        reasons.append("strong_distance")
    return reasons


def evaluate(instances, oracles, ops, per_pass: int):
    """Check the first pass in full; later passes must repeat it exactly.

    Returns per-operation failure reasons and the behaviour digest: a hash
    over the first pass's (instance, mode, outcome, answer, queries).
    """
    keys, reasons = [], []
    for j, (i, mode, _dt, q0, q1, out) in enumerate(ops):
        inst = instances[i]
        key = outcome_key(inst, mode, out)
        if j < per_pass:
            keys.append(key)
            reasons.append(check(inst, mode, oracles[i], q0, q1, out))
        elif key != keys[j % per_pass]:
            reasons.append(["nondeterministic"])
        else:
            reasons.append(reasons[j % per_pass])
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key).encode() + b"\n")
    return reasons, digest.hexdigest()[:16]


def probe_known_defect(probe) -> tuple[dict[str, int], bool]:
    """One total solve per tight instance, on fresh oracles, outside the timed loop.

    Returns the failure counts by reason, with ``solves``, and whether every
    reason is the known defect.
    """
    oracles = [inst.build() for inst in probe]
    ops = run_pass(probe, oracles)
    counts = {"solves": len(ops)}
    ok = True
    for i, mode, _dt, q0, q1, out in ops:
        for reason in check(probe[i], mode, oracles[i], q0, q1, out):
            counts[reason] = counts.get(reason, 0) + 1
            ok = ok and reason in KNOWN_DEFECT
    return counts, ok


def total_pairs(out) -> int:
    """Transcript pairs the total-search watcher compared on one run."""
    if out.kind == "violation":
        t1, t2 = out.certificate.t1, out.certificate.t2
        return (t2 - 1) * (t2 - 2) // 2 + t1
    return out.queries * (out.queries - 1) // 2


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(instances, ops, per_pass, setup_samples, reasons) -> dict:
    """The end-to-end metrics; count metrics come from the first pass.

    The timing metrics take each solve of a pass at its fastest repeat in the
    run, as ``timeit`` advises: on a shared machine the slower repeats measure
    other load, which swings the time of a 0.1 ms solve by a third from one
    second to the next.  ``solves_per_s`` is a pass's solves over the sum of
    those times.
    """
    first = [op for op in ops[:per_pass] if not isinstance(op[5], Exception)]
    times = [min(op[2] for op in ops[j::per_pass]) for j in range(per_pass)]
    failed = sum(1 for r in reasons if r)

    def bound(op):
        inst = instances[op[0]]
        return paper_bound(inst.k, *weak_params(inst, op[1]))

    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solve_s_p50": (quantile(times, 50), "s"),
        "solve_s_p90": (quantile(times, 90), "s"),
        "solves_per_s": (per_pass / sum(times), "1/s"),
        "queries_mean": (statistics.fmean(op[5].queries for op in first), "count"),
        "query_bound_frac_max": (max(op[5].queries / bound(op) for op in first), "ratio"),
        "ok_frac": (1.0 - failed / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, instances, ops, spans, passes, overhead, defect) -> dict:
    """The per-layer metrics of the traced passes, per pass.

    ``total.false_certs`` is the known-defect probe's count (``defect``), not
    the traced passes': there a false certificate fails the run.

    Exits with an error when a span the workload must produce never fired,
    or when one it must not produce did.
    Runs ``picard_baseline`` on fresh copies of the contraction instances.
    """
    s = summarize(spans)
    missing = [name for name in EXPECTED_SPANS[workload] if name not in s]
    if missing:
        sys.exit(f"perfbench: trace points recorded no calls on {workload}: {missing}")
    fired = [name for name in FORBIDDEN_SPANS.get(workload, ()) if name in s]
    if fired:
        sys.exit(f"perfbench: trace points that must stay idle fired on {workload}: {fired}")

    def get(name, field):
        return s.get(name, {}).get(field, 0) / passes

    solves = len(ops) / passes
    shrinks = [attrs["kept"] / attrs["rows"]
               for name, _start, _end, _parent, attrs in spans if name == "solver.eliminate"]
    per_pass = len(ops) // passes
    totals = [op[5] for op in ops[:per_pass]
              if op[1] == TOTAL and not isinstance(op[5], Exception)]
    certs = [op for op in totals if op.kind == "violation"]
    picard = [picard_baseline(inst.build(), inst.eps).queries for inst in instances
              if inst.contraction and inst.gamma > 0 and WEAK in inst.modes]
    orc = s["oracle"]
    solve_s = get("bench.solve", "s")
    return {
        "geometry.even_grid.calls": (get("geometry.even_grid", "calls"), "count"),
        "geometry.even_grid.s": (get("geometry.even_grid", "s"), "s"),
        "geometry.even_grid.bytes": (get("geometry.even_grid", "bytes"), "B"),
        "solver.solve.s": (solve_s, "s"),
        "solver.init.s": (get("solver.init", "s"), "s"),
        "solver.eliminate.calls": (get("solver.eliminate", "calls"), "count"),
        "solver.eliminate.s": (get("solver.eliminate", "s"), "s"),
        "solver.eliminate.rows": (get("solver.eliminate", "rows"), "count"),
        "solver.shrink_mean": (statistics.fmean(shrinks) if shrinks else 0.0, "ratio"),
        "solver.rounds_mean": (get("solver.round", "calls") / solves, "count"),
        "solver.self_s": (get("bench.solve", "self_s") + get("total.solve", "self_s"), "s"),
        "solver.picard_queries_mean": (statistics.fmean(picard) if picard else 0.0, "count"),
        "balanced.select.calls": (get("balanced.select", "calls"), "count"),
        "balanced.select.s": (get("balanced.select", "s"), "s"),
        "balanced.select.rows": (get("balanced.select", "rows"), "count"),
        "balanced.select.share": (get("balanced.select", "s") / solve_s, "ratio"),
        "balanced.coverage.calls": (get("balanced.coverage", "calls"), "count"),
        "balanced.coverage.s": (get("balanced.coverage", "s"), "s"),
        "balanced.coverage.rows": (get("balanced.coverage", "rows"), "count"),
        "balanced.exact.calls": (get("balanced.exact", "calls"), "count"),
        "balanced.exact.s": (get("balanced.exact", "s"), "s"),
        "balanced.evals_per_select": (get("balanced.coverage", "calls")
                                      / get("balanced.select", "calls"), "count"),
        "oracles.queries": (orc["outer"] / passes, "count"),
        "oracles.query.s": (orc["outer_s"] / passes, "s"),
        "oracles.map.s": (orc["leaf_s"] / passes, "s"),
        "oracles.chain.s": ((orc["outer_s"] - orc["leaf_s"]) / passes, "s"),
        "oracles.calls_per_query": (s["oracles.call"]["calls"] / orc["outer"], "count"),
        "total.solve.calls": (get("total.solve", "calls"), "count"),
        "total.scan.s": (orc["watch_self_s"] / passes, "s"),
        "total.pairs": (sum(total_pairs(out) for out in totals), "count"),
        "total.certs": (len(certs), "count"),
        "total.false_certs": (defect.get("false_cert", 0), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
