"""Partition enumeration, cell statistics, and hook-term tests."""

import pytest

from charvar.partitions import Partition, cell_stats, hook_term, partitions_of
from charvar.polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FLAVOR_XY,
    FactoredFraction,
    SparsePoly,
    binomial_product,
)
from oracles import divided_by, specialize_fraction

# p(0) .. p(10)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [Partition(())]

    def test_four_in_reverse_lex_order(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    @pytest.mark.parametrize("n,count", list(enumerate(PARTITION_COUNTS)))
    def test_counts(self, n, count):
        parts = partitions_of(n)
        assert len(parts) == count
        assert len(set(p.parts for p in parts)) == count
        assert all(p.weight == n for p in parts)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))


class TestCellStats:
    def test_worked_example(self):
        stats = cell_stats(Partition((5, 5, 4, 3, 1)))
        cell = next(c for c in stats.cells if (c.i, c.j) == (-1, 1))
        assert (cell.arm, cell.leg, cell.hook) == (3, 2, 6)

    def test_single_cell(self):
        stats = cell_stats(Partition((1,)))
        (cell,) = stats.cells
        assert (cell.arm, cell.leg, cell.hook) == (0, 0, 1)
        assert stats.leg_sum == 0

    def test_two_one(self):
        stats = cell_stats(Partition((2, 1)))
        assert sorted(c.hook for c in stats.cells) == [1, 1, 3]
        assert stats.leg_sum == 1
        assert stats.conjugate == Partition((2, 1))

    @pytest.mark.parametrize("n", range(9))
    def test_hook_identity_everywhere(self, n):
        for part in partitions_of(n):
            for cell in cell_stats(part).cells:
                assert cell.hook == cell.arm + cell.leg + 1

    @pytest.mark.parametrize("n", range(9))
    def test_transpose_swaps_arms_and_legs(self, n):
        for part in partitions_of(n):
            ours = sorted((c.arm, c.leg) for c in cell_stats(part).cells)
            theirs = sorted(
                (c.leg, c.arm) for c in cell_stats(part.conjugate()).cells
            )
            assert ours == theirs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_armless_cells_count_parts(self, n):
        for part in partitions_of(n):
            armless = sum(1 for c in cell_stats(part).cells if c.arm == 0)
            assert armless == len(part.parts)


QT = FLAVOR_QT.variables


class TestHookTerms:
    def test_e_flavor_single_cell_genus_two(self):
        term = hook_term(FLAVOR_E, Partition((1,)), 2)
        assert term == SparsePoly(("q",), {(0,): 1, (1,): -2, (2,): 1})

    def test_qt_flavor_empty_partition(self):
        assert hook_term(FLAVOR_QT, Partition(()), 3) == 1

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_qt_flavor_single_cell(self, g):
        expected = FactoredFraction.from_poly(
            SparsePoly(QT, {(0, 0): 1, (1, 1): 1}) ** (2 * g)
        )
        expected = divided_by(expected, SparsePoly(QT, {(0, 0): 1, (1, 2): -1}))
        expected = divided_by(expected, SparsePoly(QT, {(0, 0): 1, (1, 0): -1}))
        assert hook_term(FLAVOR_QT, Partition((1,)), g) == expected

    def test_pure_flavor_single_cell(self):
        one_minus_t2 = SparsePoly(("t",), {(0,): 1, (2,): -1})
        expected = divided_by(FactoredFraction.one(("t",)), one_minus_t2)
        assert hook_term(FLAVOR_PURE, Partition((1,)), 2) == expected

    def test_e_flavor_genus_zero_is_a_fraction(self):
        term = hook_term(FLAVOR_E, Partition((1,)), 0)
        ((factor, mult),) = term.denominator_factors()
        assert mult == 2
        assert factor.as_poly() == SparsePoly(("q",), {(0,): 1, (1,): -1})

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_qt_specializes_to_e_flavor(self, g, n):
        for part in partitions_of(n):
            qt_at_minus1 = specialize_fraction(hook_term(FLAVOR_QT, part, g), {"t": -1})
            assert qt_at_minus1 == hook_term(FLAVOR_E, part, g)

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_xy_specializes_to_qt_flavor(self, g, n):
        for part in partitions_of(n):
            fused = specialize_fraction(
                hook_term(FLAVOR_XY, part, g), {"x": "t", "y": "t"}
            )
            assert fused == hook_term(FLAVOR_QT, part, g)


def chained_hook_term(flavor, partition, g):
    """Reference: one binomial at a time, each step a cancelled FactoredFraction."""
    stats = cell_stats(partition)
    out = FactoredFraction.one(flavor.variables)
    for cell in stats.cells:
        if flavor.armless_only and cell.arm:
            continue
        for c, exps, power in flavor.cell_factors:
            out = out * binomial_product(out.vars, [(c, exps(cell.hook, cell.leg), power(g))])
    return out.shift(tuple(s * (1 - g) * stats.leg_sum for s in flavor.leg_shift))


@pytest.mark.parametrize(
    "flavor",
    [FLAVOR_E, FLAVOR_QT, FLAVOR_XY, FLAVOR_PURE],
    ids=lambda f: f.name,
)
def test_hook_term_matches_chained_construction(flavor):
    for g in range(5):
        for m in range(6):
            for part in partitions_of(m):
                ours = hook_term(flavor, part, g)
                ref = chained_hook_term(flavor, part, g)
                assert ours.num.terms == ref.num.terms, (g, part)
                assert ours.den == ref.den, (g, part)
