"""Residual checks of matrix pairs, every residual taken in one stacked call.

IdentityChecks gathers the checks of one operation as (lhs, rhs) stacks.
The identity-verification operations read its report, the dict of the
largest residual of each name; dsm.compute_second's route checks read
first_above, the first check above ROUTE_RTOL.
"""

from __future__ import annotations

import numpy as np

from ._linalg import rel_residuals
from .errors import PreconditionFailure


class IdentityChecks:
    """Checks gathered as (lhs, rhs) pairs, all residuals taken in one rel_residuals call."""

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

    def add_stack(self, name, js, lhs, rhs):
        """One check per matrix of two (K, m, n) stacks, matrix k at index js[k]."""
        self.names.extend([name] * len(lhs))
        self.js.extend(js)
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def _residuals(self):
        if not self.names:
            return np.zeros(0)
        with np.errstate(over="ignore", invalid="ignore"):   # the callers judge a non-finite one
            return rel_residuals(np.concatenate(self.lhs), np.concatenate(self.rhs))

    def report(self):
        """{name: largest relative residual} of the checks, names in the order first checked.

        PreconditionFailure naming the first check whose residual is not
        finite: its matrices left the float range, so it certifies nothing.
        """
        residuals = self._residuals()
        bad = ~np.isfinite(residuals)
        if bad.any():
            i = int(np.argmax(bad))
            raise PreconditionFailure(
                f"identity {self.names[i]} at j={self.js[i]} leaves the float range")
        maxima = {}
        for name, res in zip(self.names, residuals.tolist()):
            if name not in maxima or res > maxima[name]:
                maxima[name] = res
        return maxima

    def first_above(self, rtol):
        """(name, j, residual) of the first check added above rtol, or None; a NaN is not above it."""
        residuals = self._residuals()
        above = np.flatnonzero(residuals > rtol)
        if above.size:
            i = above[0]
            return self.names[i], self.js[i], float(residuals[i])
        return None
