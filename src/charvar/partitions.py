"""Partitions, Ferrers-diagram cell statistics, and hook-polynomial terms.

Diagram convention: the cell lattice is {(i, j) : i <= 0, 0 <= j < part(1-i)},
so row r >= 1 of the partition occupies cells (1-r, 0..part_r-1).  For a cell
z the arm a(z) counts cells strictly to its right, the leg l(z) cells strictly
below, and the hook length is h(z) = a(z) + l(z) + 1.  The normative fixture:
for (5,5,4,3,1) the cell z = (-1,1) has a(z) = 3 and l(z) = 2.

``hook_term`` builds the exact FactoredFraction a partition contributes at
genus g to a generating function, reading the formula from the flavor's
``Flavor`` spec (the table of all four is in its docstring): its cells'
binomial powers go to ``polynomials.binomial_product``, and the leg shift
multiplies the result.  For g = 0 the E terms are genuine fractions.  All
functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polynomials import FactoredFraction, Flavor, binomial_product


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty tuple is the partition of 0."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")
        if self.parts and self.parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def __repr__(self):
        return f"Partition{self.parts}"


@dataclass(frozen=True)
class Cell:
    """One diagram point with its arm/leg statistics; h = a + l + 1."""

    i: int
    j: int
    arm: int
    leg: int

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


@dataclass(frozen=True)
class DiagramStats:
    cells: tuple[Cell, ...]
    conjugate: Partition
    leg_sum: int


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order, each once.

    partitions_of(0) is [Partition(())]; partitions_of(4) starts with (4) and
    ends with (1,1,1,1).
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")
    return [Partition(p) for p in _partition_tuples(n, n)]


@lru_cache(maxsize=None)
def _partition_tuples(n, largest):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def cell_stats(partition: Partition) -> DiagramStats:
    """Cells with exact arm/leg/hook, the conjugate, and the sum of all legs."""
    parts = partition.parts
    conj = partition.conjugate()
    cols = conj.parts
    cells = []
    leg_sum = 0
    for r, length in enumerate(parts, start=1):
        for j in range(length):
            arm = length - 1 - j
            leg = cols[j] - r
            leg_sum += leg
            cells.append(Cell(i=1 - r, j=j, arm=arm, leg=leg))
    return DiagramStats(tuple(cells), conj, leg_sum)


def hook_term(flavor: Flavor, partition: Partition, g: int) -> FactoredFraction:
    """The generating-function term attached to one partition at genus g.

    Its cells' binomial powers, cell by cell in the order of
    ``flavor.cell_factors``, make one ``binomial_product``, cancelled once;
    the leg shift multiplies the result.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    stats = cell_stats(partition)
    factors = [
        (c, exps(cell.hook, cell.leg), power(g))
        for cell in stats.cells
        if not (flavor.armless_only and cell.arm)
        for c, exps, power in flavor.cell_factors
    ]
    out = binomial_product(flavor.variables, factors)
    return out.shift(tuple(s * (1 - g) * stats.leg_sum for s in flavor.leg_shift))
