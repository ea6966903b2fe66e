"""Query-efficient approximate fixed points of l-infinity contractions.

A black-box map ``f`` on the unit cube promised to satisfy
``|f(x) - f(y)| <= (1 - gamma) |x - y|`` (sup norm) has a unique fixed point;
plain iteration reaches an ``eps``-fixed point only after about
``(1/gamma) log(1/eps)`` queries.  This package implements a candidate-
elimination solver whose query count is ``O(k log(1/eps))`` — independent of
``gamma`` — together with the supporting geometry, a total-search variant that
never trusts the promise, a hardness construction for non-expansive maps on
the diagonal lattice, and a benchmarking CLI.

Entry points:

* :func:`solve_unit_cube` / :func:`solve_strong` — find a weak/strong
  ``eps``-fixed point of a :class:`ContractionOracle`.
* :func:`solve_total` — same, but return a violation certificate when the
  oracle breaks its contraction promise.
* :func:`picard_baseline` — the classical iteration, for comparison.
* :func:`make_instance` / :func:`make_affine` — seeded and hand-built
  instances.
* ``python -m cubefix`` / the ``cubefix`` script — CLI harness.
"""

from .oracles import ContractionOracle, make_affine, make_instance
from .solver import picard_baseline, solve_strong, solve_unit_cube
from .total import solve_total

__version__ = "0.1.0"

__all__ = [
    "ContractionOracle", "make_affine", "make_instance", "picard_baseline",
    "solve_strong", "solve_total", "solve_unit_cube",
]
