"""Shared bigraded bookkeeping: degree windows and ring generators.

Cells are indexed by (p, q): p >= 0 is the filtration (resolution or bar
length) degree, q the internal degree; total degree is p + q.
"""

from __future__ import annotations

from dataclasses import dataclass


class WindowError(ValueError):
    pass


@dataclass(frozen=True)
class DegreeWindow:
    """Truncation making every computation finite: p <= max_p, q in bounds."""

    max_p: int
    q_min: int
    q_max: int

    def __post_init__(self):
        if self.max_p < 0:
            raise WindowError("max filtration must be >= 0")
        if self.q_min > self.q_max:
            raise WindowError("empty internal degree range")

    def cells(self):
        for p in range(self.max_p + 1):
            for q in range(self.q_min, self.q_max + 1):
                yield (p, q)

    def contains(self, p, q):
        return 0 <= p <= self.max_p and self.q_min <= q <= self.q_max

    def is_edge(self, p, q):
        return p == self.max_p or q in (self.q_min, self.q_max)


@dataclass(frozen=True)
class RingGenerator:
    """A multiplicative generator of a bigraded monomial model.

    order bounds exponents (2 for square-zero symbols, k for truncated
    powers, None for free polynomial symbols).
    """

    label: str
    p: int
    q: int
    order: int | None

    @property
    def total_degree(self):
        return self.p + self.q
