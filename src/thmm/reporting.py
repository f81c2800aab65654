"""Residual reports produced by the identity-verification operations.

A report is held as columns: the name and the relative residual of each
check, and per name the largest residual.  IdentityChecks gathers the
checks of one operation as (lhs, rhs) stacks and takes every residual in
one stacked call; the IdentityCheck entries, and their "where" labels, are
made only when IdentityReport.entries is read.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._linalg import rel_residuals


@dataclasses.dataclass(frozen=True)
class IdentityCheck:
    name: str
    where: str
    residual: float


class IdentityReport:
    """A flat list of named relative residuals plus free-form notes.

    IdentityReport(entries, notes) takes IdentityCheck entries.  The largest
    residual of each name (residual_for, by_name, names) is taken once, in
    entry order with Python's max, so a NaN counts as max would count it.
    """

    def __init__(self, entries, notes=()):
        entries = tuple(entries)
        self._columns([e.name for e in entries], [e.residual for e in entries],
                      lambda: entries, notes)

    @classmethod
    def _of_columns(cls, names, residuals, make_entries, notes=()):
        """The report of the checks named names with residuals; make_entries() gives its entries."""
        report = cls.__new__(cls)
        report._columns(names, residuals, make_entries, notes)
        return report

    def _columns(self, names, residuals, make_entries, notes):
        self._names, self._residuals, self._make_entries = names, residuals, make_entries
        self.notes = tuple(notes)
        maxima = {}
        for name, res in zip(names, residuals):
            if name not in maxima or res > maxima[name]:
                maxima[name] = res
        self._maxima = maxima

    def with_notes(self, notes):
        """The same checks with notes in place of this report's."""
        return self._of_columns(self._names, self._residuals, self._make_entries, notes)

    @property
    def entries(self):
        """The IdentityCheck of each check, in the order the checks were added."""
        return self._make_entries()

    @property
    def max_residual(self):
        return max(self._residuals, default=0.0)

    def residual_for(self, name):
        """Largest residual among entries carrying the given name."""
        return self._maxima.get(name, 0.0)

    def max_residual_excluding(self, *names):
        return max((res for name, res in zip(self._names, self._residuals) if name not in names),
                   default=0.0)

    def names(self):
        return tuple(self._maxima)

    def by_name(self):
        return dict(self._maxima)


class IdentityChecks:
    """Identity checks gathered as (lhs, rhs) pairs, all residuals taken in one call.

    report() computes every relative residual with one stacked
    rel_residuals.  That equals rel_residual pair by pair on C-ordered
    matrices, the order np.linalg.norm sums them in.  A check at index j is
    labelled "j=<j>"; the labels of a stack are made by a callable, and
    every label only when the report's entries are read.
    """

    def __init__(self):
        self.names = []
        self.wheres = []
        self.lhs = []
        self.rhs = []

    def add(self, name, j, lhs, rhs):
        """One check of the matrix lhs against rhs at index j."""
        self.add_stack(name, lambda: [f"j={j}"], lhs[None], rhs[None])

    def add_stack(self, name, wheres, lhs, rhs):
        """One check per matrix of two (K, m, n) stacks; wheres() gives their K labels."""
        self.names.extend([name] * len(lhs))
        self.wheres.append(wheres)
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def report(self):
        if not self.names:
            return IdentityReport(())
        names, makers = self.names, self.wheres
        residuals = rel_residuals(np.concatenate(self.lhs), np.concatenate(self.rhs)).tolist()

        def entries():
            wheres = [where for make in makers for where in make()]
            return tuple(IdentityCheck(*check) for check in zip(names, wheres, residuals))

        return IdentityReport._of_columns(names, residuals, entries)
