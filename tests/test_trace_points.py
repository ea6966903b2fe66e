"""The benchmark tracer's trace points still match the library.

``perfbench/tracing.py`` patches module attributes by name (the solver's
``even_grid`` and ``select_query_point``, ``CandidateSet.initial``, ...).  A
renamed or bypassed function makes its span record nothing, which otherwise
only a ``--trace 1`` benchmark run notices.  Three small solves here must fire
every span the benchmark expects on any workload, the k = 3 solve alone every
span of ``k3-descent`` (so the other solves cannot hide a k = 3 path that stopped
calling a traced function), and leave every patched attribute as it was.
"""

import sys
from pathlib import Path

import numpy as np

import cubefix.balanced
import cubefix.solver
import cubefix.total
from cubefix.oracles import ContractionOracle, make_affine, make_instance
from cubefix.solver import CandidateSet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
import tracing  # noqa: E402

PATCHED = (cubefix.solver, cubefix.balanced, cubefix.total, ContractionOracle, CandidateSet)


def test_every_expected_span_fires_and_patches_are_restored():
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = tracing.Tracer()
    with tracer.installed():
        _, f1 = make_instance("affine", 1, 0.25, 0.25, seed=0)
        cubefix.solver.solve_unit_cube(f1, 0.25, 0.25, on_round=tracer.on_round)
        # A constant map far from the cube's centre: the first query is not fixed.
        f3 = make_affine(np.zeros((3, 3)), [0.05, 0.9, 0.1], 1.0)
        start = len(tracer.spans)
        res = cubefix.solver.solve_unit_cube(f3, 0.25, 1.0, on_round=tracer.on_round)
        assert len(res.rounds) >= 2
        fired_k3 = {span[0] for span in tracer.spans[start:]}
        _, ft = make_instance("affine", 2, 0.5, 0.5, seed=2)
        cubefix.total.solve_total(ft, 0.5, 0.5)
    fired = {span[0] for span in tracer.spans}
    expected = set().union(*harness.EXPECTED_SPANS.values())
    assert expected <= fired, sorted(expected - fired)
    expected_k3 = set(harness.EXPECTED_SPANS["k3-descent"])
    assert expected_k3 <= fired_k3, sorted(expected_k3 - fired_k3)
    for owner, saved in zip(PATCHED, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[name] is value for name, value in saved.items()), owner
