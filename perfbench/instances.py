"""Seeded instances and the instance mix of each workload.

Every instance is built from the workload seed alone, through the public
``ContractionOracle`` and ``make_instance`` APIs.  The solver sees only the
oracle; the known fixed point and whether the map really satisfies the
claimed factor stay on the benchmark side, for the correctness checks.

The built-in families stop after 1-4 queries at most sizes, so the two
benchmark-local makers supply the hard cases:

* ``mirror``: ``f(x) = clip(p - (1 - gamma) (x - p), 0, 1)`` with ``p``
  uniform in the cube.  A tight ``(1 - gamma)``-contraction whose fixed point
  ``p`` can sit anywhere, so the descent has real work to do.
* ``loose mirror``: the same map with factor ``0.9 (1 - gamma)``.  A
  contraction with slack, so a certificate on it is a genuine false alarm.
* ``expanding``: the same map with factor 1.5.  Not a contraction; total
  search has to answer with a certificate or a genuine eps-fixed point.

Total search on the tight mirror is the known defect of ROADMAP open item 2:
its float comparison has no tolerance and issues false certificates.  Those
solves are kept out of the timed loop, so that no operation of a workload
fails; ``split_known_defect`` hands them to a separate probe that runs once
per run and reports the defect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from cubefix.oracles import ContractionOracle, make_instance

WEAK, STRONG, TOTAL = "weak", "strong", "total"

EXPANDING_FACTOR = 1.5
LOOSE_FACTOR = 0.9


@dataclass(frozen=True)
class Instance:
    """One seeded map together with what the checks need to know about it.

    ``gamma`` is the margin the solve claims.  ``contraction`` is true when the
    map really satisfies ``|f(x) - f(y)| <= (1 - gamma) |x - y|`` in exact
    arithmetic, so any certificate on it is a false alarm.  ``fixed_point`` is
    the known unique fixed point, or None when there is none to check against.
    ``tight`` marks a contraction at exactly the claimed factor, where total
    search's float comparison issues false certificates (ROADMAP open item 2).
    """

    label: str
    k: int
    eps: float
    gamma: float
    build: Callable[[], ContractionOracle]
    fixed_point: tuple[float, ...] | None
    contraction: bool
    modes: tuple[str, ...]
    tight: bool = False


def _mirror_fn(p: tuple[float, ...], factor: float):
    def fn(x):
        return tuple(min(1.0, max(0.0, pi - factor * (xi - pi))) for xi, pi in zip(x, p))
    return fn


def make_mirror(label: str, k: int, eps: float, gamma: float, p, modes: tuple[str, ...],
                factor: float | None = None) -> Instance:
    """A mirror map through ``p``; ``factor`` defaults to ``1 - gamma``.

    With a factor of at most ``1 - gamma`` the map is a genuine contraction
    with fixed point ``p``; at exactly ``1 - gamma`` it is tight.  Any factor
    above 1 makes it expanding: it is recorded as not a contraction and with
    no fixed point to check.
    """
    p = tuple(float(v) for v in p)
    factor = 1.0 - gamma if factor is None else factor
    contraction = factor <= 1.0 - gamma
    fn = _mirror_fn(p, factor)
    fixed = p if contraction else None
    name = "mirror" if contraction else "expanding"

    def build() -> ContractionOracle:
        return ContractionOracle(fn, k, gamma, fixed_point=fixed, name=name)

    return Instance(label, k, eps, gamma, build, fixed, contraction, modes,
                    tight=factor == 1.0 - gamma)


def make_builtin(label: str, family: str, k: int, eps: float, gamma: float,
                 rng: np.random.Generator, modes: tuple[str, ...]) -> Instance:
    """A built-in ``make_instance`` family, seeded from ``rng``.

    ``identity`` and ``diamond`` are only non-expansive, so they claim a
    margin of 0, as the command-line bench does.
    """
    seed = int(rng.integers(2 ** 31))
    claim = 0.0 if family in ("identity", "diamond") else gamma
    fixed = make_instance(family, k, claim, eps, seed)[1].fixed_point

    def build() -> ContractionOracle:
        return make_instance(family, k, claim, eps, seed)[1]

    return Instance(label, k, eps, claim, build, fixed, True, modes)


def _k3_descent(rng: np.random.Generator) -> list[Instance]:
    # k = 3 at eps = gamma = 0.25: 129^3 candidates, and every round after the
    # first runs the deficit descent over ~0.5-1M rows.  Six solves take ~35 s.
    out = [make_mirror(f"mirror-k3-{i}", 3, 0.25, 0.25, rng.uniform(size=3), (WEAK,))
           for i in range(4)]
    out += [make_builtin(f"constant-k3-{i}", "constant", 3, 0.25, 0.25, rng, (WEAK,))
            for i in range(2)]
    return out


def _k12_fine(rng: np.random.Generator) -> list[Instance]:
    # Millions of candidates with the closed-form selection: k = 1 at 1e-3
    # (8,000,001 candidates) and k = 2 at 0.07 (1634^2 = 2.67M).  Two mirrors
    # per affine map: a random affine map's contraction strength swings its
    # cost from 1 to 10 queries, while the tight mirror's stays near 5-10.
    out = []
    for i in range(4):
        for k, e in ((1, 1e-3), (2, 0.07)):
            for j in range(2):
                out.append(make_mirror(f"mirror-k{k}-{2 * i + j}", k, e, e,
                                       rng.uniform(size=k), (WEAK,)))
            out.append(make_builtin(f"affine-k{k}-{i}", "affine", k, e, e, rng, (WEAK,)))
    return out


_SMALL_FAMILIES = ("affine", "constant", "reflection", "identity", "diamond",
                   "mirror", "loose", "expanding")


def _many_small(rng: np.random.Generator) -> list[Instance]:
    out = []
    for k in (1, 2):
        for e in (0.5, 0.25):
            for fam in _SMALL_FAMILIES:
                if fam == "diamond" and k != 2:
                    continue
                strong = e == 0.25 and fam in ("affine", "constant", "reflection", "mirror")
                modes = (WEAK, STRONG, TOTAL) if strong else (WEAK, TOTAL)
                for i in range(6):
                    label = f"{fam}-k{k}-e{e}-{i}"
                    if fam == "mirror":
                        out.append(make_mirror(label, k, e, e, rng.uniform(size=k), modes))
                    elif fam == "loose":
                        out.append(make_mirror(label, k, e, e, rng.uniform(size=k), (TOTAL,),
                                               factor=LOOSE_FACTOR * (1.0 - e)))
                    elif fam == "expanding":
                        out.append(make_mirror(label, k, e, e, rng.uniform(size=k), (WEAK, TOTAL),
                                               factor=EXPANDING_FACTOR))
                    else:
                        out.append(make_builtin(label, fam, k, e, e, rng, modes))
    # The tight mirror at a finer eps is where total search's float comparison
    # issues false certificates; keep enough of them that the rate shows in the
    # known-defect probe.  The loose mirror gives total search the same size of
    # transcript in the timed loop.
    out += [make_mirror(f"mirror-k1-e0.05-{i}", 1, 0.05, 0.05, rng.uniform(size=1), (WEAK, TOTAL))
            for i in range(20)]
    out += [make_mirror(f"loose-k1-e0.05-{i}", 1, 0.05, 0.05, rng.uniform(size=1), (TOTAL,),
                        factor=LOOSE_FACTOR * 0.95)
            for i in range(20)]
    return out


WORKLOADS = {
    "k3-descent": _k3_descent,
    "k12-fine": _k12_fine,
    "many-small": _many_small,
}


def build_workload(name: str, seed: int) -> list[Instance]:
    """The instance list of one workload; the same seed gives the same list."""
    return WORKLOADS[name](np.random.default_rng([seed, list(WORKLOADS).index(name)]))


def split_known_defect(instances: list[Instance]) -> tuple[list[Instance], list[Instance]]:
    """Move total mode on tight instances out of the timed loop.

    Returns the instances of the timed loop and those of the known-defect
    probe: each tight instance that had total mode, now in total mode only.
    """
    timed, probe = [], []
    for inst in instances:
        if inst.tight and TOTAL in inst.modes:
            probe.append(replace(inst, modes=(TOTAL,)))
            inst = replace(inst, modes=tuple(m for m in inst.modes if m != TOTAL))
        timed.append(inst)
    return timed, probe
