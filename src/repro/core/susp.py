"""Plug-in suspiciousness metrics (paper Section 3, Appendix E/F).

A :class:`Metric` bundles the two user-defined functions of the Spade
API: ``vsusp`` (vertex suspiciousness ``a_i``) and ``esusp`` (edge
suspiciousness ``c_ij``). Property 3.1 of the paper gives the
sufficient condition for a metric to be supported: the density is
arithmetic (``g = f/|S|``), ``a_i >= 0`` and ``c_ij > 0``; the engine
enforces both weight constraints at insertion time via
:meth:`Metric.check`.

The three published instances are provided:

* ``DG``  — Charikar's dense subgraph: ``a_i = 0``, ``c_ij = 1``.
* ``DW``  — dense *weighted* subgraph: ``a_i = 0``, ``c_ij = amount``.
* ``FD``  — Fraudar: ``a_i = prior`` (side information) and
  ``c_ij = 1 / log(x + c)`` where ``x`` is the degree of the *object*
  vertex (the transaction target / merchant) and ``c = 5`` as in the
  paper's Listing 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: Fraudar's logarithmic smoothing constant (paper Listing 2: ``log(deg+5)``).
FD_LOG_C = 5.0


@dataclass(frozen=True)
class Metric:
    """A peeling-algorithm semantic: the pair (vsusp, esusp).

    ``vsusp(prior)`` maps a vertex's side-information prior to its
    suspiciousness ``a_i``; ``esusp(amount, dst_degree)`` maps a
    transaction's amount and the current degree of its object vertex to
    the edge suspiciousness ``c_ij``.
    """

    name: str
    vsusp: Callable[[float], float]
    esusp: Callable[[float, int], float]

    def check(self, a: float = 0.0, c: float = 1.0) -> None:
        """Enforce Property 3.1: ``a_i >= 0`` and ``c_ij > 0``, both finite."""
        if not 0 <= a < math.inf:
            raise ValueError(
                f"metric {self.name}: vertex suspiciousness must be >= 0 "
                f"and finite, got {a}"
            )
        if not 0 < c < math.inf:
            raise ValueError(
                f"metric {self.name}: edge suspiciousness must be > 0 "
                f"and finite, got {c}"
            )


def _fd_esusp(amount: float, dst_degree: int) -> float:
    # Fraudar column-weighting: 1/log(x + c) with x the object degree.
    return 1.0 / math.log(dst_degree + FD_LOG_C)


DG = Metric("DG", vsusp=lambda prior: 0.0, esusp=lambda amount, deg: 1.0)
DW = Metric("DW", vsusp=lambda prior: 0.0, esusp=lambda amount, deg: float(amount))
FD = Metric("FD", vsusp=lambda prior: float(prior), esusp=_fd_esusp)

_METRICS = {m.name: m for m in (DG, DW, FD)}


def metric_by_name(name: str) -> Metric:
    """Look up a published metric by its paper name (``DG``/``DW``/``FD``)."""
    try:
        return _METRICS[name.upper()]
    except KeyError:
        raise KeyError(f"unknown metric {name!r}; choose from {sorted(_METRICS)}")
