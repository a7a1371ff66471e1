"""Bundled solver context: one grid pair plus the assembled operator.

Everything downstream (probes, decomposition, reconstruction, CLI) takes a
LabContext so a run is reproducible from the few numbers echoed in reports.
The elliptic operator is kept alongside its assembled form because probes
re-assemble it on refined grids. The benchmark pair used throughout the
docs and tests lives here too. A context holds its (nx+1, nt+1) field to
the work budget before it assembles the operator, refined ones included.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .mesh import SpatialDomain, TimeWindow, check_array_budget, \
    check_real, make_time_window
from .operator import DiscreteOperator, EllipticOperator, assemble_operator

DEFAULT_NX = 64
DEFAULT_NT = 256
DEFAULT_T = 1.0
DEFAULT_DELTA0 = 0.5
DEFAULT_DELTA1 = 0.25
DEFAULT_C0 = 2.0       # admissibility budget |f_t| <= C0 |f(., T)|
DEFAULT_M0 = 100.0     # cap on the discrete C^4 surrogate of initial values


def benchmark_source(x):
    """Source profile of the benchmark pair: the lifted mode cos(pi x) + 1/2."""
    return np.cos(np.pi * x) + 0.5


def benchmark_initial(x):
    """Initial value of the benchmark pair: three cosine modes whose
    staggered amplitudes keep the log-rate signature visible in rate runs."""
    return (np.cos(np.pi * x) + 0.5 * np.cos(2.0 * np.pi * x)
            + 0.25 * np.cos(3.0 * np.pi * x))


@dataclass(frozen=True)
class LabContext:
    """One grid pair, the elliptic operator and the two budgets; the
    assembled operator dop is built from domain and op, never passed."""
    domain: SpatialDomain
    window: TimeWindow
    op: EllipticOperator
    C0: float = DEFAULT_C0
    M0: float = DEFAULT_M0
    dop: DiscreteOperator = field(init=False)

    def __post_init__(self):
        check_array_budget({"field": (self.domain.nx + 1,
                                      self.window.nt + 1)})
        check_real("C0", self.C0)
        check_real("M0", self.M0)
        if not (self.C0 >= 0.0 and self.M0 >= 0.0):
            raise ValueError(f"C0 and M0 must be nonnegative, got "
                             f"C0={self.C0!r}, M0={self.M0!r}")
        object.__setattr__(self, "dop",
                           assemble_operator(self.domain, self.op))

    def refined(self, factor: int = 2) -> "LabContext":
        """Same problem on a grid refined by an integer factor."""
        domain = SpatialDomain(self.domain.x_left, self.domain.x_right,
                               factor * self.domain.nx, gamma=self.domain.gamma)
        window = make_time_window(self.window.T, self.window.delta0,
                                  self.window.delta1, factor * self.window.nt)
        return replace(self, domain=domain, window=window)


def make_context(nx: int = DEFAULT_NX, nt: int = DEFAULT_NT, T: float = DEFAULT_T,
                 delta0: float = DEFAULT_DELTA0, delta1: float = DEFAULT_DELTA1,
                 op: EllipticOperator | None = None,
                 gamma=("left", "right"), C0: float = DEFAULT_C0,
                 M0: float = DEFAULT_M0) -> LabContext:
    """Build a context on (0,1); nt is bumped until the snapshot times align."""
    domain = SpatialDomain(0.0, 1.0, nx, gamma=gamma)
    window = make_time_window(T, delta0, delta1, nt)
    op = op if op is not None else EllipticOperator()
    return LabContext(domain, window, op, C0=C0, M0=M0)
