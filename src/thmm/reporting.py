"""Residual reports produced by the identity-verification operations."""

from __future__ import annotations

import dataclasses

import numpy as np

from ._linalg import rel_residuals


@dataclasses.dataclass(frozen=True)
class IdentityCheck:
    name: str
    where: str
    residual: float


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    """A flat list of named relative residuals plus free-form notes."""

    entries: tuple
    notes: tuple = ()

    @property
    def max_residual(self):
        return max((e.residual for e in self.entries), default=0.0)

    def residual_for(self, name):
        """Largest residual among entries carrying the given name."""
        vals = [e.residual for e in self.entries if e.name == name]
        return max(vals) if vals else 0.0

    def max_residual_excluding(self, *names):
        vals = [e.residual for e in self.entries if e.name not in names]
        return max(vals, default=0.0)

    def names(self):
        seen = []
        for e in self.entries:
            if e.name not in seen:
                seen.append(e.name)
        return tuple(seen)

    def by_name(self):
        return {name: self.residual_for(name) for name in self.names()}


class IdentityChecks:
    """Identity checks gathered as (lhs, rhs) pairs, all residuals taken in one call.

    report() computes every relative residual with one stacked
    rel_residuals.  That equals rel_residual pair by pair on C-ordered
    matrices, the order np.linalg.norm sums them in.
    """

    def __init__(self):
        self.labels = []
        self.lhs = []
        self.rhs = []

    def add(self, name, where, lhs, rhs):
        """One check of the matrix lhs against rhs."""
        self.add_stack(name, [where], np.asarray(lhs)[None], np.asarray(rhs)[None])

    def add_stack(self, name, wheres, lhs, rhs):
        """One check per matrix of two (K, m, n) stacks, labelled by the K wheres."""
        self.labels.extend((name, where) for where in wheres)
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def report(self):
        if not self.labels:
            return IdentityReport(())
        residuals = rel_residuals(np.concatenate(self.lhs), np.concatenate(self.rhs)).tolist()
        return IdentityReport(tuple(IdentityCheck(name, where, res) for (name, where), res
                                    in zip(self.labels, residuals)))
