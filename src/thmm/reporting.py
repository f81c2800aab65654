"""Residual reports produced by the identity-verification operations.

IdentityChecks gathers the checks of one operation as (lhs, rhs) stacks
and takes every residual in one stacked call; its IdentityReport keeps
the largest residual of each name.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._linalg import rel_residuals
from .errors import PreconditionFailure


@dataclasses.dataclass(frozen=True, eq=False)
class IdentityReport:
    """The largest relative residual of each named identity, plus free-form notes.

    maxima maps each name to its largest residual, in the order the names
    were first checked.
    """

    maxima: dict
    notes: tuple = ()

    @property
    def max_residual(self):
        return max(self.maxima.values(), default=0.0)

    def max_residual_excluding(self, *names):
        return max((res for name, res in self.maxima.items() if name not in names), default=0.0)


class IdentityChecks:
    """Identity checks gathered as (lhs, rhs) pairs, all residuals taken in one call.

    report() computes every relative residual with one stacked
    rel_residuals.  That equals rel_residual pair by pair on C-ordered
    matrices, the order np.linalg.norm sums them in.
    """

    def __init__(self):
        self.names = []
        self.js = []
        self.lhs = []
        self.rhs = []

    def add(self, name, j, lhs, rhs):
        """One check of the matrix lhs against rhs at index j."""
        self.names.append(name)
        self.js.append(j)
        self.lhs.append(lhs[None])
        self.rhs.append(rhs[None])

    def add_stack(self, name, j, lhs, rhs):
        """One check at index j per matrix of two (K, m, n) stacks."""
        self.names.extend([name] * len(lhs))
        self.js.extend([j] * len(lhs))
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def report(self):
        """The IdentityReport of the checks.

        PreconditionFailure naming the first check whose residual is not
        finite: its matrices left the float range, so it certifies nothing.
        """
        if not self.names:
            return IdentityReport({})
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite residual is refused
            residuals = rel_residuals(np.concatenate(self.lhs), np.concatenate(self.rhs))
        bad = ~np.isfinite(residuals)
        if bad.any():
            i = int(np.argmax(bad))
            raise PreconditionFailure(
                f"identity {self.names[i]} at j={self.js[i]} leaves the float range")
        maxima = {}
        for name, res in zip(self.names, residuals.tolist()):
            if name not in maxima or res > maxima[name]:
                maxima[name] = res
        return IdentityReport(maxima)
