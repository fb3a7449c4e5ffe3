"""Truncated series over factored fractions, and rank-layer extraction.

Everything here happens in one bookkeeping variable T truncated at a fixed
order; coefficients are FactoredFraction values in the flavor's variable
context.  The partition sum

    S(T) = sum over partitions  hook_term(flavor, partition, g) * T^weight

is summed pairwise, as a balanced tree over the terms of each weight, so
cancellation runs at every node and each node lifts reduced children; the log
and the layer recursion sum flat and cancel once per coefficient.  The sum
factors as an infinite product of plethystic exponentials, one per rank n:

    S(T) = prod_n exp( sum_r adams_r[ V_n ] * T^(n*r) / r )

The pipeline works with integer multiples of the logarithm's coefficients,
so no step before the last one divides.  W_m = m*[T^m] log S are the
coefficients of T*d/dT log S, and Newton's identity gives them from S:

    W_m = m*S_m - sum_{k<m} W_k*S_{m-k}.

With X_n = n*V_n, the layers satisfy W_m = sum_{r | m} adams_r[ X_{m/r} ],
which the divisor recursion inverts:  X_m = W_m - sum_{r|m, r>1}
adams_r[X_{m/r}].  Every numerator along the way has integer coefficients.
Truncation at order nmax is exact for X_1..X_nmax because rank n only
contributes to T^m for n <= m.  The named invariant of rank n comes out of
X_n by dividing by the rank-one term (the flavor's ``cell_factors`` at the
single cell), by a monomial shift of (``leg_shift``/2) * n(n-1)(g-1), and by
the single division by n, which must be exact.  A longer truncation only
appends coefficients, so ``hook_sum_series``, ``series_log`` and
``extract_layers`` each continue their own lower-order result ``start``: the
memo's (S, W, X) entry is extended, never rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstantTermNotOne, NonIntegerCoefficient, NotPolynomial
from .partitions import hook_term, partitions_of
from .polynomials import (
    FactoredFraction,
    Flavor,
    SparsePoly,
    _terms_text,
    _unreduced_product,
    adams,
    frac_sum,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c[0..order] of a series in T, with FactoredFraction entries."""

    flavor: Flavor
    coeffs: tuple[FactoredFraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def hook_sum_series(flavor: Flavor, g: int, order: int, start=None) -> TruncatedSeries:
    """The partition sum truncated at T^order, continuing ``start``; S_0 = 1.

    The hook terms of each weight are summed pairwise, in the order of
    ``partitions_of``, until one fraction is left: each node of this balanced
    tree cancels, so its parent lifts reduced children to a smaller common
    denominator than the flat sum of all terms would.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = list(start.coeffs if start else ())
    for m in range(len(coeffs), order + 1):
        terms = [hook_term(flavor, p, g) for p in partitions_of(m)]
        while len(terms) > 1:
            terms = [frac_sum(terms[i:i + 2]) for i in range(0, len(terms), 2)]
        coeffs.append(terms[0])
    return TruncatedSeries(flavor, tuple(coeffs))


def series_log(s: TruncatedSeries, start=None) -> TruncatedSeries:
    """The coefficients W_m = m*[T^m] log S of T*d/dT log S.

    Newton's identity W_m = m*S_m - sum_{k<m} W_k*S_{m-k} keeps integer
    numerators integer.  Each product goes into the sum uncancelled, and the
    sum's one cancel decides, so every W_m is reduced.  Continues ``start``,
    the log of a truncation of s.
    """
    if not s.coeffs[0].equals(1):
        raise ConstantTermNotOne("series_log wants constant coefficient exactly 1")
    variables = s.flavor.variables
    w = list(start.coeffs if start else [FactoredFraction.zero(variables)])
    for m in range(len(w), s.order + 1):
        terms = [s.coeffs[m].scale(m)]
        for k in range(1, m):
            if w[k].is_zero() or s.coeffs[m - k].is_zero():
                continue
            terms.append(_unreduced_product(-w[k], s.coeffs[m - k]))
        w.append(frac_sum(terms, variables))
    return TruncatedSeries(s.flavor, tuple(w))


def _divisors(m: int) -> list[int]:
    return [r for r in range(1, m + 1) if m % r == 0]


def extract_layers(flavor: Flavor, g: int, nmax: int, start=None):
    """The scaled rank layers [X_1, ..., X_nmax] of the partition sum at genus g.

    Entry k of the returned list is X_{k+1} = (k+1)*V_{k+1}, from
    X_m = W_m - sum_{r|m, r>1} adams_r[X_{m/r}] with W from series_log; its
    numerator has integer coefficients.  Raising nmax never changes the
    earlier layers (the divisor recursion is triangular in m), so ``start``,
    the (S, W, X) triple of a lower rank or (None, None, ()), is extended to
    nmax and returned as a triple.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    s, w, layers = start or (None, None, ())
    s = hook_sum_series(flavor, g, nmax, s)
    w = series_log(s, w)
    layers = list(layers)
    for m in range(len(layers) + 1, nmax + 1):
        terms = [w.coeffs[m]]
        for r in _divisors(m):
            if r == 1:
                continue
            prev = layers[m // r - 1]
            if prev.is_zero():
                continue
            terms.append(-adams(prev, r, flavor))
        layers.append(frac_sum(terms, flavor.variables))
    return layers if start is None else (s, w, tuple(layers))


# -- normalization of a layer into the named invariant ------------------------


def invariant_from_layer(
    flavor: Flavor, n: int, g: int, layer: FactoredFraction
) -> SparsePoly:
    """Solve the flavor's defining relation for the invariant of rank n.

    Takes the scaled layer X_n = n*V_n from extract_layers.  Clears the
    layer's normalization factor, reduces the result to an honest polynomial
    (NotPolynomial on failure: a falsified polynomiality statement or a bug),
    and divides it by n, which must be exact (NonIntegerCoefficient names the
    first rational coefficient of the quotient and its text).
    """
    out = layer
    # Divide by the single-cell term; reversed so the clearing multiplications
    # (its denominators) run before the divisions.
    for c, exps, power in reversed(flavor.cell_factors):
        out = out._times_binomial(c, exps(1, 0), -power(g))
    shift = n * (n - 1) * (g - 1)
    out = out.shift(tuple(s // 2 * shift for s in flavor.leg_shift))
    poly = out.as_polynomial()
    if poly.has_negative_exponents():
        lo = poly.min_exponents()
        raise NotPolynomial(
            f"normalized layer is Laurent, lowest exponents {lo}",
            factor=lo,
        )
    try:
        return poly.scale(Fraction(1, n))
    except NonIntegerCoefficient:
        terms = [(e, Fraction(c, n)) for e, c in poly.sorted_terms()]
        e, c = next((e, c) for e, c in terms if c.denominator != 1)
        raise NonIntegerCoefficient(
            f"coefficient {c} of exponent {e} in {_terms_text(poly.vars, terms)[:80]}"
        ) from None
