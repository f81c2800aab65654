"""Residual reports produced by the identity-verification operations."""

from __future__ import annotations

import dataclasses


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
