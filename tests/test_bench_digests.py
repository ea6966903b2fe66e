"""The benchmark's workloads still behave exactly as recorded.

``perfbench/`` hashes the first pass of every workload, per solve the
(instance, mode, outcome, answer, queries), into a behaviour digest.  One
pass of each workload at seed 11 runs here, through the benchmark's own
``instances`` and ``harness`` modules (imported read-only), and must fail no
check and reproduce the digest below.  A change that alters solver output on
purpose updates these digests, the way it updates the golden bytes of
``tests/test_cli.py``, and says why.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
from instances import build_workload, split_known_defect  # noqa: E402

DIGESTS = {
    "k3-descent": "f35d982437fcdd70",
    "k12-fine": "204cf6e6779f8809",
    "many-small": "872308d5c82f5e1f",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_digest_at_seed_11(workload):
    instances, _probe = split_known_defect(build_workload(workload, 11))
    oracles = [inst.build() for inst in instances]
    ops = harness.run_pass(instances, oracles)
    reasons, digest = harness.evaluate(instances, oracles, ops, len(ops))
    assert [r for r in reasons if r] == []
    assert digest == DIGESTS[workload]
