"""Command-line harness: solves, benchmarks, property suites, adversary demos.

Subcommands
-----------
solve
    One instance through the elimination solver (``--total`` adds transcript
    violation scanning, ``--baseline`` adds a fixed-point-iteration run).
bench
    A sweep over families x k x eps with per-run rows and per-(k, eps)
    summary rows in CSV.
verify-lemmas
    The randomized property suites, one PASS/FAIL line each.
total
    Shorthand for ``solve --total``.
adversary-demo
    Build the hard-instance strip family and check separation plus exact
    out-of-strip indistinguishability.

Exit codes are a stable contract: 0 success, 1 usage error, 2 violation
certificate (or failed property suite), 3 internal invariant failure.  All
randomness flows through the ``--seed`` argument and every result file is
byte-identical across reruns of the same configuration; wall-clock time is
reported on stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import properties
from .adversary import StripFamily, check_diagonal_nonexpansive, eval_diamond_map
from .errors import InstanceTooLargeError, InternalInvariantError
from .geometry import linf_dist
from .oracles import InstanceSpec, build_instance, make_instance
from .solver import (DEFAULT_CANDIDATE_CAP, OUTCOME_FIXED_POINT, OUTCOME_VIOLATION,
                     picard_baseline, query_bound, solve_unit_cube)
from .total import solve_total

__all__ = ["main", "build_parser"]

BENCH_HEADER = "instance,k,eps,gamma,n,queries,rounds,residual,outcome"


class UsageError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_eps(eps: float) -> float:
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must be in (0, 1), got {eps}")
    return eps


def _check_gamma(gamma: float) -> float:
    if not 0.0 <= gamma < 1.0:
        raise UsageError(f"gamma must be in [0, 1), got {gamma}")
    return gamma


def _instance_gamma(family: str, gamma: float) -> float:
    """The margin the instance is built with; the solve still uses the claim.

    The identity and diamond families are genuinely only non-expansive, so
    their oracles always declare 0 regardless of the claimed gamma.
    """
    return 0.0 if family in ("identity", "diamond") else gamma


def _resolve_instance(args) -> tuple[InstanceSpec, object]:
    if args.instance_file is not None:
        spec = InstanceSpec.loads(Path(args.instance_file).read_text())
        return spec, build_instance(spec)
    family = args.family or "affine"
    k = args.k if args.k is not None else 2
    gamma = args.gamma if args.gamma is not None else 0.5
    eps = args.eps if args.eps is not None else 0.5
    spec, oracle = make_instance(family, k, _instance_gamma(family, gamma),
                                 eps, args.seed)
    return spec, oracle


def cmd_solve(args) -> int:
    spec, oracle = _resolve_instance(args)
    eps = _check_eps(args.eps if args.eps is not None else spec.epsilon)
    gamma = _check_gamma(args.gamma if args.gamma is not None else spec.gamma)
    if args.k is not None and args.instance_file is None and args.k != spec.k:
        raise UsageError(f"instance dimension {spec.k} does not match --k {args.k}")
    out: dict = {"command": "solve", "instance": spec.to_json_obj(), "eps": eps,
                 "gamma": gamma, "cap": args.cap, "seed": args.seed,
                 "total": bool(args.total)}
    if args.total:
        total = solve_total(oracle, eps, gamma, cap=args.cap)
        out["result"] = total.to_json_obj()
        exit_code = 2 if total.kind == "violation" else 0
    else:
        res = solve_unit_cube(oracle, eps, gamma, cap=args.cap)
        out["result"] = res.to_json_obj()
        exit_code = 2 if res.outcome == OUTCOME_VIOLATION else 0
    if args.baseline:
        base = picard_baseline(build_instance(spec), eps)
        out["baseline"] = {"queries": base.queries, "outcome": base.outcome,
                           "residual": base.residual,
                           "answer": None if base.answer is None else list(base.answer)}
    _write_text(args.out, _dumps(out))
    if args.out is not None:
        rounds = out["result"].get("rounds")
        if rounds is None and out["result"].get("result"):
            rounds = out["result"]["result"]["rounds"]
        lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in (rounds or []))
        Path(args.out).with_suffix(".rounds.jsonl").write_text(lines)
    return exit_code


def _parse_values(text: str, cast) -> list:
    text = text.strip()
    if not text:
        return []
    return [cast(v) for v in text.split(",")]


def cmd_bench(args) -> int:
    ks = _parse_values(args.k_list, int)
    eps_list = [_check_eps(e) for e in _parse_values(args.eps_list, float)]
    families = _parse_values(args.family_list, str)
    if args.gamma_list is None:
        gammas = list(eps_list)
    else:
        gammas = [_check_gamma(g) for g in _parse_values(args.gamma_list, float)]
        if len(gammas) == 1:
            gammas = gammas * len(eps_list)
        if len(gammas) != len(eps_list):
            raise UsageError("--gamma must give one value or one per --eps value")
    if args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    header = BENCH_HEADER + (",picard" if args.baseline else "")
    rows: list[str] = []
    for k in ks:
        for eps, gamma in zip(eps_list, gammas):
            cell: list[dict] = []
            for family in families:
                if family == "diamond" and k != 2:
                    continue
                for seed in range(args.seed, args.seed + args.trials):
                    cell.append(_bench_run(family, k, eps, gamma, seed, args))
            for rec in cell:
                rows.append(_bench_row(rec, args.baseline))
            if cell:
                rows.append(_bench_summary(k, eps, cell, args.baseline))
    text = header + "\n" + "".join(r + "\n" for r in rows)
    _write_text(args.out, text)
    return 0


def _bench_run(family: str, k: int, eps: float, gamma: float, seed: int, args) -> dict:
    claim = _instance_gamma(family, gamma)
    rec = {"instance": f"{family}-s{seed}", "k": k, "eps": eps, "gamma": claim,
           "n": "", "queries": "", "rounds": "", "residual": "", "outcome": "",
           "picard": "", "bound": 0, "within": False}
    try:
        spec, oracle = make_instance(family, k, claim, eps, seed)
        res = solve_unit_cube(oracle, eps, claim, cap=args.cap)
        rec.update(n=res.n, queries=res.queries, rounds=len(res.rounds),
                   residual="" if res.residual is None else repr(res.residual),
                   outcome=res.outcome, bound=res.query_bound,
                   within=res.queries <= res.query_bound)
        if args.baseline:
            base = picard_baseline(build_instance(spec), eps)
            rec["picard"] = base.queries
    except InstanceTooLargeError:
        rec.update(outcome="instance-too-large", within=True)
    except InternalInvariantError:
        rec.update(outcome="internal-invariant-error")
    return rec


def _bench_row(rec: dict, baseline: bool) -> str:
    cols = [rec["instance"], rec["k"], rec["eps"], rec["gamma"], rec["n"],
            rec["queries"], rec["rounds"], rec["residual"], rec["outcome"]]
    if baseline:
        cols.append(rec["picard"])
    return ",".join(str(c) for c in cols)


def _bench_summary(k: int, eps: float, cell: list[dict], baseline: bool) -> str:
    """Summary reuses the row columns: max queries, the query bound in the
    rounds column, and within-bound / exceeds-bound as the outcome."""
    ran = [r for r in cell if r["queries"] != ""]
    max_q = max((r["queries"] for r in ran), default="")
    max_n = max((r["n"] for r in ran), default="")
    bound = max((r["bound"] for r in ran), default="")
    worst_res = max((float(r["residual"]) for r in ran if r["residual"] != ""),
                    default=None)
    ok = all(r["within"] for r in cell)
    cols = [f"summary-k{k}-eps{eps}", k, eps, "", max_n, max_q, bound,
            "" if worst_res is None else repr(worst_res),
            "within-bound" if ok else "exceeds-bound"]
    if baseline:
        cols.append(max((r["picard"] for r in ran if r["picard"] != ""), default=""))
    return ",".join(str(c) for c in cols)


def cmd_verify_lemmas(args) -> int:
    if args.trials is not None and args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    try:
        reports = properties.run_all(trials=args.trials, seed=args.seed,
                                     mutate=args.mutate)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        line = f"{status} {rep['name']}: trials={rep['trials']} failures={rep['failures']}"
        if not rep["passed"] and rep["witnesses"]:
            line += f" witness={json.dumps(rep['witnesses'][0], sort_keys=True)}"
        print(line)
        if rep.get("warning"):
            print(f"warning: {rep['name']}: {rep['warning']}", file=sys.stderr)
    if args.out is not None:
        _write_text(args.out, _dumps({"command": "verify-lemmas", "seed": args.seed,
                                      "trials": args.trials, "mutate": args.mutate,
                                      "suites": reports}))
    return 0 if all(r["passed"] for r in reports) else 2


def cmd_adversary_demo(args) -> int:
    if args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    try:
        fam = StripFamily(args.n_strips, args.delta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    strips = []
    all_separated = True
    for x in range(1, fam.N + 1):
        s_map, t_map = fam.pair(x)
        sep = linf_dist(s_map.anchor, t_map.anchor)
        ok = sep > 0.5
        all_separated &= ok
        strips.append({"strip": x, "s_anchor": list(s_map.anchor),
                       "t_anchor": list(t_map.anchor), "separation": sep,
                       "separated": ok})
    mismatches = 0
    checked = 0
    for _ in range(args.trials):
        x = int(rng.integers(1, fam.N + 1))
        s_map, t_map = fam.pair(x)
        v_lo, v_hi = fam.strip_v_range(x)
        u = float(rng.uniform(0.5, 1.5))
        v = float(rng.uniform(-0.5, 0.5))
        if v_lo <= v <= v_hi:
            continue  # inside the strip: the two maps may legitimately differ
        half = (u + v) / 2.0
        p = ((u - v) / 2.0, half)
        checked += 1
        if eval_diamond_map(s_map, p) != eval_diamond_map(t_map, p):
            mismatches += 1
    diag = check_diagonal_nonexpansive(fam.pair(1)[0], samples=max(args.trials, 1),
                                       rng=rng, domain="diamond")
    report = {"command": "adversary-demo", "N": fam.N, "delta": fam.delta,
              "seed": args.seed, "strips": strips,
              "separation_ok": all_separated,
              "out_of_strip": {"checked": checked, "mismatches": mismatches},
              "diagonal_pairs": {"samples": diag["samples"],
                                 "max_ratio": diag["max_ratio"],
                                 "passed": diag["passed"]}}
    _write_text(args.out, _dumps(report))
    good = all_separated and mismatches == 0 and diag["passed"]
    return 0 if good else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubefix",
                     description="Query-efficient fixed points of l-infinity "
                                 "contractions on the unit cube.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_instance_flags(p) -> None:
        p.add_argument("--family", default=None,
                       help="instance family: affine, constant, reflection, "
                            "identity, diamond (default affine)")
        p.add_argument("--instance-file", default=None,
                       help="JSON instance spec to load instead of --family")
        p.add_argument("--k", type=int, default=None, help="dimension (default 2)")
        p.add_argument("--eps", type=float, default=None,
                       help="target residual, in (0, 1) (default 0.5)")
        p.add_argument("--gamma", type=float, default=None,
                       help="claimed contraction margin, in [0, 1) (default 0.5)")
        p.add_argument("--seed", type=int, default=0, help="instance seed")
        p.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP,
                       help="candidate-set size cap")
        p.add_argument("--out", default=None, help="result file (default stdout)")

    p_solve = sub.add_parser("solve", help="solve one instance")
    add_instance_flags(p_solve)
    p_solve.add_argument("--total", action="store_true",
                         help="scan the transcript for contraction violations")
    p_solve.add_argument("--baseline", action="store_true",
                         help="also run the fixed-point-iteration baseline")
    p_solve.set_defaults(func=cmd_solve)

    p_total = sub.add_parser("total", help="solve with violation scanning")
    add_instance_flags(p_total)
    p_total.add_argument("--baseline", action="store_true",
                         help="also run the fixed-point-iteration baseline")
    p_total.set_defaults(func=cmd_solve, total=True)

    p_bench = sub.add_parser("bench", help="sweep instances and report CSV")
    p_bench.add_argument("--k", dest="k_list", default="1,2",
                         help="comma-separated dimensions")
    p_bench.add_argument("--eps", dest="eps_list", default="0.5,0.25",
                         help="comma-separated eps values")
    p_bench.add_argument("--gamma", dest="gamma_list", default=None,
                         help="claimed margins: one value or one per eps "
                              "(default: gamma = eps)")
    p_bench.add_argument("--family", dest="family_list", default="affine",
                         help="comma-separated families")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--trials", type=int, default=5, help="seeds per cell")
    p_bench.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)
    p_bench.add_argument("--baseline", action="store_true",
                         help="add a Picard-iteration query-count column")
    p_bench.add_argument("--out", default=None, help="CSV file (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_ver = sub.add_parser("verify-lemmas", help="run the property suites")
    p_ver.add_argument("--trials", type=int, default=None,
                       help="trials per suite (default: per-suite values)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--mutate", default=None,
                       help="inject a known defect; suites must then fail "
                            f"(known: {', '.join(properties.MUTATIONS)})")
    p_ver.add_argument("--out", default=None, help="JSON report file")
    p_ver.set_defaults(func=cmd_verify_lemmas)

    p_adv = sub.add_parser("adversary-demo",
                           help="strip-family separation and indistinguishability")
    p_adv.add_argument("--n-strips", type=int, default=8,
                       help="number of strips (a power of two)")
    p_adv.add_argument("--delta", type=float, default=None,
                       help="band width parameter (default: half the limit)")
    p_adv.add_argument("--trials", type=int, default=2000,
                       help="sampled out-of-strip and diagonal checks")
    p_adv.add_argument("--seed", type=int, default=0)
    p_adv.add_argument("--out", default=None, help="JSON report file")
    p_adv.set_defaults(func=cmd_adversary_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"cubefix: error: {exc}", file=sys.stderr)
        return 1
    except InstanceTooLargeError as exc:
        print(f"cubefix: refusing: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"cubefix: internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"cubefix: error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"wall-time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
