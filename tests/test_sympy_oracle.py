"""A third oracle: the invariants from sympy's own series, log and cancel.

The partition sum S is built from the ``Flavor`` data as a sympy expression,
its logarithm is expanded by ``sympy.series``, and the layers come out by
Moebius inversion, V_n = sum_{d|n} mu(d)/d * adams_d[U_{n/d}], not by the
divisor recursion under test.  No FactoredFraction, exact division or
pre-test is involved.  Hqt and Hxy are left out: at n = 2, g = 2 sympy needs
tens of seconds for them.
"""

import pytest

sympy = pytest.importorskip("sympy")

from charvar.invariants import compute_invariant  # noqa: E402
from charvar.partitions import cell_stats, partitions_of  # noqa: E402
from charvar.polynomials import FLAVOR_E, FLAVOR_PURE  # noqa: E402

T = sympy.Symbol("T")


def _monomial(xs, exps):
    return sympy.Mul(*(x**k for x, k in zip(xs, exps)))


def _hook_term(flavor, xs, partition, g):
    stats = cell_stats(partition)
    term = _monomial(xs, [s * (1 - g) * stats.leg_sum for s in flavor.leg_shift])
    for cell in stats.cells:
        if flavor.armless_only and cell.arm:
            continue
        for c, exps, power in flavor.cell_factors:
            term *= (1 + c * _monomial(xs, exps(cell.hook, cell.leg))) ** power(g)
    return term


def _adams(expr, r, flavor, xs):
    images = {
        x: -((-x) ** r) if name in flavor.twisted else x**r
        for x, name in zip(xs, flavor.variables)
    }
    return expr.xreplace(images)


def sympy_invariant(flavor, n, g):
    xs = sympy.symbols(flavor.variables)
    s = 1 + sum(
        T**m * sum(_hook_term(flavor, xs, p, g) for p in partitions_of(m))
        for m in range(1, n + 1)
    )
    log = sympy.series(sympy.log(s), T, 0, n + 1).removeO()
    u = {m: log.coeff(T, m) for m in sympy.divisors(n)}
    v = sum(
        sympy.mobius(d) * sympy.Rational(1, d) * _adams(u[n // d], d, flavor, xs)
        for d in sympy.divisors(n)
    )
    rank_one = sympy.Mul(
        *(
            (1 + c * _monomial(xs, exps(1, 0))) ** power(g)
            for c, exps, power in flavor.cell_factors
        )
    )
    shift = n * (n - 1) * (g - 1)
    norm = _monomial(xs, [s // 2 * shift for s in flavor.leg_shift])
    return sympy.Poly(sympy.cancel(v / rank_one * norm), *xs)


@pytest.mark.parametrize(
    "flavor,kind,n,g",
    [
        (FLAVOR_E, "E", 2, 2),
        (FLAVOR_E, "E", 3, 2),
        (FLAVOR_E, "E", 4, 1),
        (FLAVOR_PURE, "PP", 3, 2),
    ],
)
def test_invariant_matches_sympy(flavor, kind, n, g):
    expected = sympy_invariant(flavor, n, g)
    assert dict(expected.terms()) == compute_invariant(kind, n, g).polynomial.terms
