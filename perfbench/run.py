"""Benchmark for cubefix: one workload, one seed, one closed-loop caller.

Run from the root of a checkout::

    python3 perfbench/run.py --workload k3-descent --seed 1 --seconds 25 --trace 0

The run imports cubefix from the checkout's ``src/``, builds the workload's
instances from the seed, then solves them in passes, one solve at a time,
until ``--seconds`` have gone by (always at least one whole pass, so every
count repeats exactly for a seed).  Every answer is checked afterwards.
Total search on the tight mirror, the known defect of ROADMAP open item 2,
runs once before the timed phase, in a probe that is not counted in
``attempted`` or ``failed``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the failure reasons, the known-defect counts, the sample
counts and the behaviour digest.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, per traced
pass, from spans recorded around the public function of each cubefix module
(see ``tracing.py``).  Spans are written to ``.perfbench_out/`` under the
checkout.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import cubefix from it."""
    src = ROOT / "src"
    if not (src / "cubefix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cubefix sources under {src}")
    sys.path.insert(0, str(src))
    import cubefix
    if Path(cubefix.__file__).resolve().parent != (src / "cubefix").resolve():
        sys.exit(f"perfbench: imported cubefix from {cubefix.__file__}, not {src}")


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: import plus instance building, one sample each."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import and instance building, print it and exit")
    args = p.parse_args(argv)

    import_library()
    import harness
    from instances import WORKLOADS, build_workload, split_known_defect
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    instances, probe = split_known_defect(build_workload(args.workload, args.seed))
    oracles = [inst.build() for inst in instances]
    if args.setup_probe:
        print(time.perf_counter() - _START)
        return 0
    per_pass = sum(len(inst.modes) for inst in instances)

    defect, defect_ok = harness.probe_known_defect(probe)
    if args.trace:
        tracer = Tracer()
        base_ops, ops, overhead = harness.run_traced(instances, oracles, args.seconds, tracer)
        passes = len(ops) // per_pass
        metrics = harness.per_layer(args.workload, instances, ops, tracer.spans, passes,
                                    overhead, defect)
        tracer.dump(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        ops = base_ops + ops
        reasons, digest = harness.evaluate(instances, oracles, ops, per_pass)
    else:
        setup_samples = setup_seconds(args.workload, args.seed)
        ops = harness.run_passes(instances, oracles, args.seconds)
        reasons, digest = harness.evaluate(instances, oracles, ops, per_pass)
        metrics = harness.end_to_end(instances, ops, per_pass, setup_samples, reasons)

    by_reason: dict[str, int] = {}
    for op_reasons in reasons:
        for reason in op_reasons:
            by_reason[reason] = by_reason.get(reason, 0) + 1
    failed = sum(1 for r in reasons if r)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(instances)} instances, {per_pass} solves per pass, "
          f"{len(ops) // per_pass} passes, {len(ops)} solves checked")
    print(f"behaviour digest (first pass): {digest}")
    print("failures by reason: "
          + (", ".join(f"{k}={v}" for k, v in sorted(by_reason.items())) or "none"))
    print("known defect (ROADMAP item 2), total search on tight mirrors, not counted: "
          + ", ".join(f"{k}={v}" for k, v in sorted(defect.items())))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and defect_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
