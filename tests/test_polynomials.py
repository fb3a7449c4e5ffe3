"""Unit and property tests for the exact sparse-polynomial kernel."""

import operator
import pickle
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charvar.errors import (
    CharvarError,
    ContextError,
    NegativeExponentAtZero,
    NonIntegerCoefficient,
    NotDivisible,
    NotPolynomial,
)
from charvar.polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    BinomialFactor,
    FactoredFraction,
    SparsePoly,
    adams,
    adams_poly,
    binomial_product,
    divide_exact,
    frac_sum,
    poly_text,
)
import charvar.polynomials as polynomials
from charvar.polynomials import (
    _cancel,
    _common_denominator,
    _jet,
    _test_point,
    _unreduced_product,
)
from oracles import (
    binomial_factor,
    divided_by,
    jet_by_pass,
    reference_frac_sum,
    specialize_fraction,
)

Q = ("q",)
QT = ("q", "t")


def p(vars_, terms):
    return SparsePoly(vars_, terms)


def one(vars_=Q):
    return SparsePoly.one(vars_)


class TestPolyArithmetic:
    def test_add_cancels(self):
        assert p(Q, {(0,): 1, (1,): -1}) + p(Q, {(1,): 1}) == one()

    def test_mul_difference_of_squares(self):
        lhs = p(Q, {(0,): 1, (1,): -1}) * p(Q, {(0,): 1, (1,): 1})
        assert lhs == p(Q, {(0,): 1, (2,): -1})

    def test_pow_binomial(self):
        base = p(QT, {(0, 0): 1, (1, 1): 1})
        assert base**2 == p(QT, {(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_pow_matches_repeated_mul(self):
        base = p(QT, {(0, 0): 1, (1, 0): -2, (0, 1): 3})
        assert base**3 == base * base * base

    def test_context_mismatch(self):
        with pytest.raises(ContextError):
            one(Q) + one(QT)

    def test_zero_normalization(self):
        assert p(Q, {(1,): 0}).is_zero()
        assert (p(Q, {(1,): 1}) - p(Q, {(1,): 1})).is_zero()

    @pytest.mark.parametrize("c", [Fraction(4, 2), Fraction(1, 2), 2.0], ids=["2/1", "1/2", "float"])
    def test_a_coefficient_that_is_no_int_is_a_type_error(self, c):
        """Coefficients are read through operator.index: even an integral Fraction is refused."""
        for build in (lambda: p(Q, {(1,): c}), lambda: SparsePoly.constant(Q, c),
                      lambda: SparsePoly.monomial(Q, (1,), c)):
            with pytest.raises(TypeError):
                build()

    def test_a_wrong_length_exponent_vector_is_a_context_error(self):
        """A shift or monomial with one exponent per variable too many or too
        few names the vector and the context, as the constructor does."""
        f = p(QT, {(1, 0): 1, (0, 1): 2})
        with pytest.raises(ContextError, match=re.escape("(1, 0, 5) does not match context ('q', 't')")):
            f.shift((1, 0, 5))
        with pytest.raises(ContextError, match=re.escape("(1,) does not match context ('q', 't')")):
            f.shift((1,))
        with pytest.raises(ContextError, match=re.escape("(1, 2, 3) does not match context ('q', 't')")):
            SparsePoly.monomial(QT, (1, 2, 3))
        with pytest.raises(ContextError, match="does not match context"):
            SparsePoly.monomial(QT, (0, 0, 0), 0)
        fr = FactoredFraction.from_poly(f)
        with pytest.raises(ContextError, match="does not match context"):
            fr.shift((0, 0, 0))

    def test_a_wrong_length_coefficient_read_is_a_context_error(self):
        """coefficient, like shift, names a vector that does not fit the
        context instead of answering 0 for it."""
        f = p(QT, {(1, 0): 1, (0, 1): 10})
        assert (f.coefficient((0, 1)), f.coefficient([1, 0]), f.coefficient((1, 5))) == (10, 1, 0)
        for exps in ((1, 0, 5), (1,), ()):
            with pytest.raises(ContextError, match=re.escape(f"{exps} does not match context ('q', 't')")):
                f.coefficient(exps)

    def test_min_exponents_of_zero_is_a_value_error(self):
        assert p(QT, {(1, -2): 1, (-1, 3): 1}).min_exponents() == (-1, -2)
        with pytest.raises(ValueError, match="zero polynomial"):
            SparsePoly.zero(QT).min_exponents()
        with pytest.raises(ValueError, match="zero polynomial"):
            (p(Q, {(1,): 1}) - p(Q, {(1,): 1})).min_exponents()

    def test_scale_by_a_fraction_must_be_exact(self):
        f = p(QT, {(0, 0): 6, (1, 2): -4})
        assert f.scale(Fraction(-3, 2)) == p(QT, {(0, 0): -9, (1, 2): 6})
        assert f.scale(Fraction(4, 1)) == f.scale(4) == f * 4
        with pytest.raises(NonIntegerCoefficient, match="scaling by 1/4 gives the coefficient 3/2") as err:
            f.scale(Fraction(1, 4))
        assert isinstance(err.value, CharvarError)
        with pytest.raises(TypeError):
            f.scale(0.5)
        fr = divided_by(FactoredFraction.from_poly(f), p(QT, {(0, 0): 1, (1, 0): -1}))
        assert fr.scale(Fraction(1, 2)).num == p(QT, {(0, 0): 3, (1, 2): -2})
        with pytest.raises(NonIntegerCoefficient):
            fr.scale(Fraction(1, 3))


class TestDivideExact:
    def test_geometric_factor(self):
        num = p(Q, {(0,): 1, (2,): -1})
        div = p(Q, {(0,): 1, (1,): -1})
        assert divide_exact(num, div) == p(Q, {(0,): 1, (1,): 1})

    def test_two_variable_geometric_factor(self):
        num = p(QT, {(0, 0): 1, (3, 3): -1})
        div = p(QT, {(0, 0): 1, (1, 1): -1})
        assert divide_exact(num, div) == p(QT, {(0, 0): 1, (1, 1): 1, (2, 2): 1})

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact(p(Q, {(0,): 1, (1,): 1}), p(Q, {(0,): 1, (1,): -1}))

    def test_laurent_division(self):
        num = p(Q, {(-1,): 1, (1,): -1})  # q^-1 - q = q^-1 (1 - q^2)
        div = p(Q, {(0,): 1, (1,): -1})
        assert divide_exact(num, div) == p(Q, {(-1,): 1, (0,): 1})

    @pytest.mark.parametrize(
        "div",
        [p(Q, {(2,): 3}), p(Q, {(0,): 1, (1,): 1, (2,): 1})],
        ids=["one-term", "three-term"],
    )
    def test_divisor_that_is_not_a_binomial_is_refused(self, div):
        with pytest.raises(ValueError, match="unit monomial|not a binomial"):
            divide_exact(div * p(Q, {(0,): 2, (3,): -5}), div)

    def test_sparse_failing_division_stops_at_the_line_bound(self):
        """The chain from 1 would climb K/4 levels; its line's top stops it at
        once.  1 + q^2*t^4 has no test point, so the long division decides."""
        k = 200_000
        num = p(QT, {(0, 0): 1, (k, k): 1})
        start = time.perf_counter()
        with pytest.raises(NotDivisible):
            divide_exact(num, p(QT, {(0, 0): 1, (2, 4): 1}))
        assert time.perf_counter() - start < 1.0


class TestFractions:
    def test_add_additive_inverse(self):
        f = divided_by(FactoredFraction.one(Q), p(Q, {(0,): 1, (1,): -1}))
        assert (f + (-f)).is_zero()

    def test_add_no_spurious_cancellation(self):
        one_minus_q = p(Q, {(0,): 1, (1,): -1})
        a = divided_by(FactoredFraction.one(Q), one_minus_q)
        b = divided_by(FactoredFraction.from_poly(p(Q, {(1,): 1})), one_minus_q)
        total = a + b
        assert total.num == p(Q, {(0,): 1, (1,): 1})
        assert len(total.denominator_factors()) == 1

    def test_polynomials_and_fractions_mix_in_either_order(self):
        """A SparsePoly operand acts as its fraction, on either side of the
        operator, and so does an int on the left of a subtraction."""
        poly = p(Q, {(0,): 2, (1,): 1})
        f = divided_by(FactoredFraction.from_poly(p(Q, {(2,): 1})), p(Q, {(0,): 1, (1,): -1}))
        as_frac = FactoredFraction.from_poly(poly)
        one = FactoredFraction.one(Q)
        pairs = [(f + poly, f + as_frac), (poly + f, as_frac + f), (f - poly, f - as_frac),
                 (poly - f, as_frac - f), (poly * f, as_frac * f), (f * poly, f * as_frac),
                 (1 - f, one - f), (3 - f, one.scale(3) - f)]
        for got, want in pairs:
            assert type(got) is FactoredFraction and got == want
            assert (got.num, got.den) == (want.num, want.den)
        assert poly == as_frac and as_frac == poly and (1 - poly) == p(Q, {(0,): -1, (1,): -1})

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_a_foreign_operand_is_a_type_error(self, op):
        poly = p(Q, {(0,): 1, (1,): 1})
        f = divided_by(FactoredFraction.one(Q), p(Q, {(0,): 1, (1,): -1}))
        for a, b in [(poly, "x"), ("x", poly), (f, "x"), ("x", f), (poly, None), (f, 1.5)]:
            with pytest.raises(TypeError):
                op(a, b)
        assert f != "x" and poly != "x"

    def test_mixed_contexts_raise_context_error(self):
        f = divided_by(FactoredFraction.one(Q), p(Q, {(0,): 1, (1,): -1}))
        other = p(QT, {(0, 0): 1, (1, 1): 1})
        for make in (lambda: f + other, lambda: other + f, lambda: other - f,
                     lambda: other * f, lambda: f == other, lambda: other + one(Q)):
            with pytest.raises(ContextError):
                make()

    def test_mul_cancels_via_exact_division(self):
        one_minus_q = p(QT, {(0, 0): 1, (1, 0): -1})
        one_minus_qt = p(QT, {(0, 0): 1, (1, 1): -1})
        a = FactoredFraction.from_poly(p(QT, {(0, 0): 1, (2, 0): -1}))
        a = divided_by(a, one_minus_qt)
        b = divided_by(FactoredFraction.one(QT), one_minus_q)
        out = a * b
        assert out.num == divide_exact(p(QT, {(0, 0): 1, (2, 0): -1}), one_minus_q)
        assert [f.as_poly() for f, _ in out.denominator_factors()] == [one_minus_qt]

    def test_common_denominator_is_multiset_max(self):
        one_minus_q = p(Q, {(0,): 1, (1,): -1})
        a = divided_by(FactoredFraction.one(Q), one_minus_q, 2)
        b = divided_by(FactoredFraction.one(Q), one_minus_q)
        total = a + b
        assert dict(total.denominator_factors()).popitem()[1] == 2
        assert total.num == p(Q, {(0,): 2, (1,): -1})

    def test_value_equality_across_representations(self):
        one_minus_q2 = p(Q, {(0,): 1, (2,): -1})
        one_minus_q = p(Q, {(0,): 1, (1,): -1})
        one_plus_q = p(Q, {(0,): 1, (1,): 1})
        a = divided_by(FactoredFraction.one(Q), one_minus_q2)
        b = divided_by(divided_by(FactoredFraction.one(Q), one_minus_q), one_plus_q)
        assert a == b

    def test_a_negative_multiplicity_is_refused(self):
        """1 / (1 - q)^-1 would print as (1) / (1 - q) and add up wrongly."""
        f = BinomialFactor(Q, (1,), -1)
        with pytest.raises(ValueError, match="multiplicity -1 < 0"):
            FactoredFraction(one(), {f: -1})
        assert FactoredFraction(one(), {f: 0}).den == {}


class TestAsPolynomial:
    def test_geometric(self):
        f = FactoredFraction.from_poly(p(Q, {(0,): 1, (2,): -1}))
        f = divided_by(f, p(Q, {(0,): 1, (1,): -1}))
        assert f.as_polynomial() == p(Q, {(0,): 1, (1,): 1})

    def test_sign_paired_cancellation(self):
        num = p(QT, {(1, 2): 1, (0, 0): -1}) * p(QT, {(1, 0): 1, (0, 0): -1})
        f = FactoredFraction.from_poly(num)
        f = divided_by(f, p(QT, {(0, 0): 1, (1, 2): -1}))
        f = divided_by(f, p(QT, {(0, 0): 1, (1, 0): -1}))
        assert f.as_polynomial() == SparsePoly.one(QT)

    def test_not_polynomial_carries_factor(self):
        f = FactoredFraction.from_poly(p(Q, {(0,): 1, (1,): 1}))
        f = divided_by(f, p(Q, {(0,): 1, (1,): -1}))
        with pytest.raises(NotPolynomial) as err:
            f.as_polynomial()
        assert err.value.factor == p(Q, {(0,): 1, (1,): -1})


class TestAdams:
    def test_identity(self):
        f = FactoredFraction.from_poly(p(QT, {(1, 1): 1}))
        assert adams(f, 1, FLAVOR_QT) is f

    def test_even_twist_flips_sign(self):
        f = FactoredFraction.from_poly(p(QT, {(1, 1): 1}))  # q*t
        assert adams(f, 2, FLAVOR_QT).num == p(QT, {(2, 2): -1})

    def test_odd_twist_keeps_sign(self):
        f = FactoredFraction.from_poly(p(QT, {(0, 1): 1}))  # t
        assert adams(f, 3, FLAVOR_QT).num == p(QT, {(0, 3): 1})

    def test_denominator_renormalized(self):
        # 1/(1+qt) under r=2 becomes 1/(1-q^2 t^2)
        f = divided_by(FactoredFraction.one(QT), p(QT, {(0, 0): 1, (1, 1): 1}))
        out = adams(f, 2, FLAVOR_QT)
        ((factor, mult),) = out.denominator_factors()
        assert factor.as_poly() == p(QT, {(0, 0): 1, (2, 2): -1}) and mult == 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_composition_sign_identity_qt(self, r, s):
        t_mono = p(QT, {(0, 1): 1})
        assert adams_poly(adams_poly(t_mono, s, FLAVOR_QT), r, FLAVOR_QT) == adams_poly(
            t_mono, r * s, FLAVOR_QT
        )


class TestSpecialize:
    def test_value(self):
        f = p(QT, {(0, 0): 1, (1, 2): 1})
        assert f.specialize({"t": -1}) == p(Q, {(0,): 1, (1,): 1})

    def test_drop_variable(self):
        f = p(QT, {(2, 4): 1})
        assert f.specialize({"q": 1}) == p(("t",), {(4,): 1})

    def test_variable_fusion(self):
        f = p(("q", "x", "y"), {(0, 0, 0): 1, (1, 1, 2): 1})
        assert f.specialize({"x": "t", "y": "t"}) == p(QT, {(0, 0): 1, (1, 3): 1})

    def test_negative_exponent_at_zero(self):
        f = p(Q, {(-1,): 1})
        with pytest.raises(NegativeExponentAtZero):
            f.specialize({"q": 0})

    def test_full_specialization_returns_scalar(self):
        f = p(QT, {(1, 1): 2, (0, 0): 1})
        assert f.specialize({"q": 2, "t": Fraction(1, 2)}) == 3
        assert f.specialize({"q": Fraction(1, 3), "t": 1}) == Fraction(5, 3)

    def test_a_rational_value_must_leave_integer_coefficients(self):
        """A rational value is fine where the kept variables' coefficients come
        out integral; a result that would get a non-integer one raises."""
        f = p(QT, {(1, 1): 2, (2, 0): 4, (0, 0): 1})
        assert f.specialize({"q": Fraction(1, 2)}) == p(("t",), {(1,): 1, (0,): 2})
        with pytest.raises(NonIntegerCoefficient, match="coefficient 3/2"):
            p(QT, {(1, 1): 3}).specialize({"q": Fraction(1, 2)})
        with pytest.raises(NonIntegerCoefficient):
            p(QT, {(-1, 1): 1}).specialize({"q": 2})

    def test_unknown_variable(self):
        with pytest.raises(ContextError):
            one().specialize({"t": 1})

    @pytest.mark.parametrize("value", [0.1, 0.5, 1.0, 2.5, complex(1, 0), None, b"q"])
    def test_a_value_that_is_no_int_fraction_or_name_is_a_type_error(self, value):
        """A float would be read as a binary fraction (0.1 as
        3602879701896397/2^55): every value is refused up front, whether or
        not its variable occurs, and the exact values still specialize."""
        f = p(QT, {(1, 0): 1, (0, 1): 10})
        for assignment in ({"q": value, "t": 1}, {"q": value}, {"t": 1, "q": value}):
            with pytest.raises(TypeError, match="not an int, a Fraction or a name"):
                f.specialize(assignment)
        with pytest.raises(TypeError):
            p(QT, {(0, 1): 1}).specialize({"q": value})
        assert f.specialize({"q": Fraction(1, 10), "t": 1}) == Fraction(101, 10)
        assert f.specialize({"q": 2, "t": True}) == 12


class TestRendering:
    def test_spec_example(self):
        f = p(Q, {(0,): 1, (2,): -4, (4,): 6})
        assert poly_text(f) == "1 - 4*q^2 + 6*q^4"

    def test_unit_coefficients_and_exponent_one(self):
        f = p(QT, {(12, 0): 1, (1, 1): -1, (0, 0): 1})
        assert poly_text(f) == "1 - q*t + q^12"

    def test_zero(self):
        assert poly_text(SparsePoly.zero(Q)) == "0"

    def test_leading_negative(self):
        assert poly_text(p(Q, {(1,): -2})) == "-2*q"


# -- property tests -----------------------------------------------------------

_coeffs = st.integers(min_value=-6, max_value=6)
_exps_qt = st.tuples(
    st.integers(min_value=-3, max_value=4), st.integers(min_value=-3, max_value=4)
)


@st.composite
def sparse_polys(draw, vars_=QT, exps=_exps_qt, min_terms=0):
    terms = draw(st.dictionaries(exps, _coeffs, min_size=min_terms, max_size=5))
    return SparsePoly(vars_, terms)


_denominator_pool = [
    SparsePoly(QT, {(0, 0): 1, (1, 0): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 1): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 2): -1}),
    SparsePoly(QT, {(0, 0): 1, (2, 2): -1}),
    SparsePoly(QT, {(0, 0): 1, (1, 1): 1}),
]


@st.composite
def fractions(draw):
    num = draw(sparse_polys())
    out = FactoredFraction.from_poly(num)
    for idx in draw(st.lists(st.integers(0, len(_denominator_pool) - 1), max_size=3)):
        out = divided_by(out, _denominator_pool[idx])
    return out


@given(fractions(), fractions())
@settings(max_examples=60, deadline=None)
def test_frac_add_commutative(a, b):
    assert (a + b) == (b + a)


@given(fractions(), fractions(), fractions())
@settings(max_examples=40, deadline=None)
def test_frac_add_associative(a, b, c):
    assert ((a + b) + c) == (a + (b + c))


@given(fractions(), fractions(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_adams_is_ring_morphism(a, b, r):
    assert adams(a * b, r, FLAVOR_QT) == adams(a, r, FLAVOR_QT) * adams(b, r, FLAVOR_QT)
    assert adams(a + b, r, FLAVOR_QT) == adams(a, r, FLAVOR_QT) + adams(b, r, FLAVOR_QT)


@given(
    sparse_polys(vars_=Q, exps=st.tuples(st.integers(min_value=0, max_value=5))),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_adams_composition_untwisted(f, r, s):
    assert adams_poly(adams_poly(f, s, FLAVOR_E), r, FLAVOR_E) == adams_poly(
        f, r * s, FLAVOR_E
    )
    g = SparsePoly(("t",), dict(f.terms))
    assert adams_poly(adams_poly(g, s, FLAVOR_PURE), r, FLAVOR_PURE) == adams_poly(
        g, r * s, FLAVOR_PURE
    )


def naive_product_terms(a, b):
    """Reference for SparsePoly.__mul__: every term pair, then drop zeros."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: int(c) if c.denominator == 1 else c for e, c in out.items() if c}


_mul_coeffs = st.integers(-4, 4).filter(bool)


@st.composite
def polys_with_constant(draw, max_terms):
    """Laurent polys in q, t; the constant term is absent, 1, or another number."""
    nonconstant = _exps_qt.filter(any)
    terms = draw(st.dictionaries(nonconstant, _mul_coeffs, max_size=max_terms))
    constants = [None, 1, 1, -1, 3, 2, -5]
    constant = draw(st.sampled_from(constants))
    if constant is not None:
        terms[(0, 0)] = constant
    return SparsePoly(QT, terms)


@given(polys_with_constant(3), polys_with_constant(6))
@example(p(QT, {(0, 0): 1, (1, 0): -1}), p(QT, {(0, 0): 1, (1, 0): 1}))
@example(p(QT, {(0, 0): 2, (0, 1): 1}), p(QT, {(0, 0): 1, (0, -1): -2}))
@example(p(QT, {(0, 0): -2, (1, -1): 1}), p(QT, {(0, 0): 2, (3, 1): 4}))
@settings(max_examples=150, deadline=None)
def test_mul_matches_naive_double_loop(a, b):
    for x, y in ((a, b), (b, a)):
        got = (x * y).terms
        want = naive_product_terms(x, y)
        assert got == want
        assert [type(got[e]) for e in want] == [type(c) for c in want.values()]


def fraction_specialize(f, assignment):
    """Reference for SparsePoly.specialize: every value goes through Fraction."""
    new_vars = [v for v in f.vars if v not in assignment]
    for v in f.vars:
        t = assignment.get(v)
        if isinstance(t, str) and t not in new_vars:
            new_vars.append(t)
    out = {}
    for e, c in f.terms.items():
        coeff = c
        new_e = [0] * len(new_vars)
        for v, k in zip(f.vars, e):
            t = assignment.get(v, v)
            if isinstance(t, str):
                new_e[new_vars.index(t)] += k
            elif k:
                t = Fraction(t)
                if not t:
                    if k < 0:
                        raise NegativeExponentAtZero(f"{v}^{k} evaluated at {v} = 0")
                    coeff = 0
                    break
                coeff = coeff * t**k
        if coeff:
            key = tuple(new_e)
            out[key] = out.get(key, 0) + coeff
    out = {e: int(c) if c.denominator == 1 else c for e, c in out.items() if c}
    if not new_vars:
        return out.get((), 0)
    if any(type(c) is not int for c in out.values()):
        raise NonIntegerCoefficient("a kept variable would get a rational coefficient")
    return SparsePoly(tuple(new_vars), out)


QTX = ("q", "t", "x")
_targets = st.sampled_from(
    [0, 1, -1, 3, -2, Fraction(1, 2), Fraction(-2, 3), "q", "t", "x", "u", "u"]
)


@st.composite
def specialize_cases(draw):
    exps = st.tuples(*[st.integers(min_value=-3, max_value=4)] * 3)
    f = SparsePoly(QTX, draw(st.dictionaries(exps, _mul_coeffs, max_size=6)))
    chosen = draw(st.lists(st.sampled_from(QTX), unique=True, min_size=1))
    return f, {v: draw(_targets) for v in chosen}


@given(specialize_cases())
@example((p(("x", "y"), {(1, 2): 1}), {"x": "y"}))
@example((p(QT, {(-1, 0): 2, (0, 1): 1}), {"q": 0}))
@example((p(QT, {(2, 1): 3, (0, -2): 1}), {"q": 3, "t": -2}))
@example((p(QT, {(2, 1): 3, (0, -2): 1}), {"q": Fraction(1, 3)}))
@example((p(QT, {(2, 1): 9, (0, -2): 1}), {"q": Fraction(1, 3)}))
@example((p(QTX, {(1, 1, 0): 1, (0, 1, 1): -1, (2, 0, 0): 4}), {"t": "u", "x": "u", "q": -1}))
@settings(max_examples=200, deadline=None)
def test_specialize_matches_fraction_path(case):
    f, assignment = case
    try:
        want = fraction_specialize(f, assignment)
    except (NegativeExponentAtZero, NonIntegerCoefficient) as exc:
        with pytest.raises(type(exc)):
            f.specialize(assignment)
        return
    got = f.specialize(assignment)
    assert type(got) is type(want)
    if isinstance(want, SparsePoly):
        assert got.vars == want.vars and got.terms == want.terms
        assert [type(got.terms[e]) for e in want.terms] == [
            type(c) for c in want.terms.values()
        ]
    else:
        assert got == want


@given(sparse_polys(min_terms=1), st.integers(0, len(_denominator_pool) - 1))
@settings(max_examples=60, deadline=None)
def test_divide_exact_inverts_multiplication(a, idx):
    b = _denominator_pool[idx]
    assert divide_exact(a * b, b) == a


# Divisors beyond the denominator pool, each 1 +- x^d: a plus sign, three
# variables, 1 + q^2 and 1 + q^2*t^4 (every exponent even, so the modular
# pre-test has no point to evaluate at), 1 - t^2 (direction (0, 2): the
# exponent the long division buckets by is not the first), 1 + q^3*t and
# 1 - x*y^3 with odd and mixed exponents, and 1 - q^h*t with h = 2^14 - 1 at
# the edge of the narrowest width of two slots, so that the walk widens.  The
# coefficient 2^61 - 1 has the value 0 modulo the pre-test's prime.
_wide_divisors = [
    SparsePoly(QT, {(0, 0): 1, (1, 2): 1}),
    SparsePoly(("q", "x", "y"), {(0, 0, 0): 1, (1, 1, 2): -1}),
    SparsePoly(Q, {(0,): 1, (2,): 1}),
    SparsePoly(QT, {(0, 0): 1, (2, 4): 1}),
    SparsePoly(QT, {(0, 0): 1, (0, 2): -1}),
    SparsePoly(QT, {(0, 0): 1, (3, 1): 1}),
    SparsePoly(("q", "x", "y"), {(0, 0, 0): 1, (0, 1, 3): -1}),
    SparsePoly(QT, {(0, 0): 1, ((1 << 14) - 1, 1): -1}),
]
_wide_coeffs = st.one_of(_coeffs, st.just((1 << 61) - 1))


@st.composite
def wide_division_cases(draw):
    b = draw(st.sampled_from(_wide_divisors))
    exps = st.tuples(*[st.integers(min_value=-3, max_value=4)] * len(b.vars))
    a = SparsePoly(b.vars, draw(st.dictionaries(exps, _wide_coeffs, max_size=6)))
    m = SparsePoly.monomial(b.vars, draw(exps), draw(_wide_coeffs.filter(bool)))
    return a, b, m


@given(wide_division_cases())
@settings(max_examples=150, deadline=None)
def test_divide_exact_decides_wide_divisors(case):
    a, b, m = case
    assert divide_exact(a * b, b) == a
    with pytest.raises(NotDivisible):
        divide_exact(a * b + m, b)


# values +-1 and renames only: they keep each factor 1 +- x^d (or a constant)
_assignments = [{"q": 1}, {"t": -1}, {"t": 1}, {"q": -1}, {"t": "q"}, {"q": -1, "t": "u"}]


@st.composite
def built_fractions(draw):
    """Fractions from products, sums, divided_by and specialize_fraction."""
    out = draw(fractions())
    for _ in range(draw(st.integers(0, 2))):
        other = draw(fractions())
        out = out * other if draw(st.booleans()) else out + other
    if draw(st.booleans()):
        try:
            out = specialize_fraction(out, draw(st.sampled_from(_assignments)))
        except (ZeroDivisionError, NonIntegerCoefficient):
            pass  # a denominator factor vanished there, or became the constant 2
    return out


@given(built_fractions())
@settings(max_examples=100, deadline=None)
def test_no_denominator_factor_divides_the_numerator(f):
    """Every fraction is reduced, which is why as_polynomial needs no division."""
    for factor, _ in f.denominator_factors():
        with pytest.raises(NotDivisible):
            divide_exact(f.num, factor.as_poly())


@given(sparse_polys())
@settings(max_examples=60, deadline=None)
def test_as_polynomial_of_embedded_polynomial(f):
    assert FactoredFraction.from_poly(f).as_polynomial() == f


@given(st.lists(fractions(), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_frac_sum_matches_pairwise_addition(items):
    total = items[0]
    for item in items[1:]:
        total = total + item
    assert frac_sum(items, QT) == total


# -- the pre-test's carried jets -----------------------------------------------

_factors = [binomial_factor(b) for b in _denominator_pool]
# test points of the pool's factors, and of directions no factor here has
_points = [f._point for f in _factors] + [
    _test_point((2, -1), 1), _test_point((0, 3), -1), _test_point((1, 2), 1)
]


def _seed(poly):
    """Give poly the reference jet at every test point where it has none, as
    if the operations that built it had carried them."""
    values = dict(poly._values or {})
    for pt in _points:
        values.setdefault(pt, jet_by_pass(poly, pt))
    object.__setattr__(poly, "_values", values)
    return poly


def _assert_memo_is_fresh(poly):
    """Every memoized jet equals the reference pass over poly's terms.

    The value must be equal; the derivative too, wherever it is known.
    """
    for pt, (value, deriv) in (poly._values or {}).items():
        ref_value, ref_deriv = jet_by_pass(poly, pt)
        assert value == ref_value, (poly, pt)
        assert deriv is None or deriv == ref_deriv, (poly, pt)


def _tree_sum(items):
    while len(items) > 1:
        items = [frac_sum(items[i:i + 2]) for i in range(0, len(items), 2)]
    return items[0]


_OPS = ["neg", "scale", "shift", "mul", "mul_poly", "flat_sum", "tree_sum", "cancel"]


@given(fractions(), st.data())
@settings(max_examples=150, deadline=None)
def test_carried_values_equal_a_fresh_pass(start, data):
    """Jets carried through the operations that build numerators are exact.

    Negation and an int scale carry a scalar, a shift a monomial's jet; a
    product takes the Leibniz rule; a sum lifts its summands' jets; a
    quotient takes the quotient rule, or phi(D*N)/phi(D*f) where f vanishes.
    Each result's memo must equal the reference pass, derivatives where known.
    """
    out = start
    _seed(out.num)
    _assert_memo_is_fresh(out.num)
    for op in data.draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=4)):
        if op == "neg":
            out = -out
        elif op == "scale":
            out = out.scale(data.draw(st.integers(-5, 5).filter(bool)))
        elif op == "shift":
            out = out.shift(data.draw(_exps_qt))
        elif op == "mul":
            out = out * data.draw(fractions())
        elif op == "mul_poly":
            out = out * data.draw(sparse_polys())
        elif op in ("flat_sum", "tree_sum"):
            items = [out] + data.draw(st.lists(fractions(), min_size=1, max_size=4))
            for item in items:
                _seed(item.num)
            out = frac_sum(items) if op == "flat_sum" else _tree_sum(items)
        else:
            factor = data.draw(st.sampled_from(_factors))
            k = data.draw(st.integers(1, 2))
            num = _seed(out.num * factor.as_poly() ** k)
            den = dict(out.den)
            den[factor] = den.get(factor, 0) + k + data.draw(st.integers(0, 1))
            num, den = _cancel(num, den)
            out = FactoredFraction._reduced(num, den)
        _assert_memo_is_fresh(out.num)
    for factor, _ in out.denominator_factors():
        with pytest.raises(NotDivisible):
            divide_exact(out.num, factor.as_poly())


@pytest.fixture
def walks(monkeypatch):
    """Every long division, in order: True where it found a quotient."""
    done = []
    real = polynomials._divide_two_term

    def counted(*args):
        out = real(*args)
        done.append(out is not None)
        return out

    monkeypatch.setattr(polynomials, "_divide_two_term", counted)
    return done


@pytest.fixture
def reads(monkeypatch):
    """The (polynomial, point, jet) of every _jet read, in order."""
    read = []
    real = polynomials._jet

    def recorded(poly, pt):
        jet = real(poly, pt)
        read.append((poly, pt, jet))
        return jet

    monkeypatch.setattr(polynomials, "_jet", recorded)
    return read


_F = BinomialFactor(QT, (1, 1), -1)  # 1 - q*t
_A = p(QT, {(0, 0): 1, (1, 0): 2, (0, 2): -3, (2, 1): 5})


def test_a_shift_carries_the_monomials_jet():
    """x^s*N has the jet (m*n0, m*n1 + s_j*m*n0), with m the value of x^s."""
    shifted = _seed(p(QT, dict(_A.terms))).shift((2, -1))
    assert set(shifted._values) == set(_points)
    assert all(deriv is not None for _, deriv in shifted._values.values())
    _assert_memo_is_fresh(shifted)


def test_a_quotient_is_retested_at_its_own_point_without_a_pass(reads, walks):
    """(A*f^2) / f^2: the second test reads phi(D*N)/phi(D*f), carried."""
    fp = _F.as_poly()
    num = _seed(_A * fp**2)
    q, den = _cancel(num, {_F: 2})
    assert (q, den) == (_A, {})
    tested = [(poly, jet[0]) for poly, _, jet in reads if poly is not fp]
    assert [value for _, value in tested] == [0, 0]  # both values were carried
    assert tested[0][0] is num and walks == [True, True]
    _assert_memo_is_fresh(q)


def test_a_quotient_is_rejected_on_the_retest_without_a_pass(walks):
    """(A*f) / f^2 with f not dividing A: the carried value rejects the second test."""
    a_value = jet_by_pass(_A, _F._point)[0]
    assert a_value != 0
    num = _seed(_A * _F.as_poly())
    q, den = _cancel(num, {_F: 2})
    assert (q, den) == (_A, {_F: 1})
    assert walks == [True]  # the second test needed no walk
    assert q._values[_F._point][0] == a_value
    _assert_memo_is_fresh(q)


def test_a_factor_that_vanishes_at_another_factors_point():
    """1 - q^2*t^2 vanishes at the point of 1 - q*t, to first order, and back."""
    g = BinomialFactor(QT, (2, 2), -1)
    points = (_F._point, g._point)
    for a, b in ((_F, g), (g, _F)):
        assert _jet(a.as_poly(), b._point)[0] == 0
        assert _jet(a.as_poly(), b._point)[1] != 0
    # a quotient by f at g's point, where phi(f) = 0, takes phi(D*N)/phi(D*f)
    num = _seed(_A * _F.as_poly())
    q, den = _cancel(num, {_F: 1, g: 1})
    assert (q, den) == (_A, {g: 1})
    assert all(q._values[pt][0] is not None for pt in points)
    _assert_memo_is_fresh(q)
    # over f*g, q/f + b/g lifts q by g and b by f: each lift vanishes to first
    # order at both points, so its jet takes its numerator's value alone, and
    # q's derivative, unknown on f's zero set, is not needed
    assert all(q._values[pt][1] is None for pt in points)
    b = _seed(p(QT, {(1, 0): 1, (0, 1): -4, (1, 2): 3}))
    common = {_F: 1, g: 1}
    fracs = [FactoredFraction._reduced(q, {_F: 1}), FactoredFraction._reduced(b, {g: 1})]
    cofactors = [({g: 1}, []), ({_F: 1}, [])]
    lifts = polynomials._lift_numerators(fracs, cofactors, common)
    assert lifts == [q * g.as_poly(), b * _F.as_poly()]
    for lift in lifts:
        assert lift._values == {pt: jet_by_pass(lift, pt) for pt in points}
    # b with no memoized value: its lift's value is still 0 there, its
    # derivative unknown, and no pass computes b's jet
    fresh_b = p(QT, dict(b.terms))
    fracs[1] = FactoredFraction._reduced(fresh_b, {g: 1})
    lift = polynomials._lift_numerators(fracs, cofactors, common)[1]
    assert fresh_b._values is None
    assert lift._values == {pt: (0, None) for pt in points}
    # a/(f*g) + b/g over f*g lifts b alone, by f: the total's jets are a's
    # plus those of b's lift, which vanishes at both points
    for summand, known in ((b, True), (fresh_b, False)):
        a = _seed(p(QT, dict(_A.terms)))
        fracs = [FactoredFraction._reduced(a, common), FactoredFraction._reduced(summand, {g: 1})]
        total = frac_sum(fracs)
        assert (total.num, total.den) == (a + summand * _F.as_poly(), common)
        assert total.num._values == {
            pt: jet_by_pass(total.num, pt) if known else (jet_by_pass(total.num, pt)[0], None)
            for pt in points
        }
    assert fresh_b._values is None


def test_an_unknown_part_times_zero_is_zero():
    """The product rule where a jet's part is unknown (None): 0 absorbs it."""
    mul = polynomials._jet_mul
    for a, b, product in (
        ((None, None), (0, 5), (0, None)),
        ((3, None), (0, 5), (0, 15)),
        ((None, None), (0, 0), (0, 0)),
        ((None, None), (2, 5), (None, None)),
        ((None, None), (2, 0), (None, None)),
        ((3, None), (2, 5), (6, None)),
        ((3, 4), (2, 5), (6, 23)),
    ):
        assert mul(a, b) == mul(b, a) == product


# -- sums over the lcm of each line ----------------------------------------------


def _over(vars_, num, *exps):
    """num / prod (1 - x^e) over the exponent vectors exps."""
    out = FactoredFraction.from_poly(p(vars_, num))
    for e in exps:
        out = divided_by(out, p(vars_, {(0,) * len(vars_): 1, e: -1}))
    return out


def _seed_all(fracs):
    """Give each summand the reference jet at every denominator factor's point,
    as the pipeline carries them."""
    points = {f._point for fr in fracs for f in fr.den} - {None}
    for fr in fracs:
        object.__setattr__(fr.num, "_values", {pt: jet_by_pass(fr.num, pt) for pt in points})
    return fracs


def test_a_factor_that_divides_another_is_not_lifted_in(walks):
    """1/(1-q) + 1/(1-q^2) = (2+q)/(1-q^2), lifted by 1+q: no walk divides 1-q out."""
    total = frac_sum([_over(Q, {(0,): 1}, (1,)), _over(Q, {(0,): 1}, (2,))])
    assert (total.num, [f.as_poly() for f in total.den]) == (
        p(Q, {(0,): 2, (1,): 1}), [p(Q, {(0,): 1, (2,): -1})])
    assert walks == []
    # a geometric sum of three terms: 1/(1-q^3) + 1/(1-q) = (2+q+q^2)/(1-q^3)
    total = frac_sum([_over(Q, {(0,): 1}, (3,)), _over(Q, {(0,): 1}, (1,))])
    assert total.num == p(Q, {(0,): 2, (1,): 1, (2,): 1}) and len(total.den) == 1
    # a cofactor of geometric sums alone, (1+q)(1+q+q^2), is 6 at q = 1, the
    # point of both factors, so the total's jet there takes its closed form
    fracs = _seed_all([_over(Q, {(0,): 1}, (2,), (3,)), _over(Q, {(0,): 1}, (1,), (1,))])
    total = frac_sum(fracs)
    assert total.num == p(Q, {(0,): 2, (1,): 2, (2,): 2, (3,): 1}) and len(total.den) == 2
    assert [deriv is not None for _, deriv in total.num._values.values()] == [True]
    _assert_memo_is_fresh(total.num)


def test_a_cofactor_that_costs_more_than_the_lifts_is_not_taken():
    """Lifting a long numerator by 1+q+q^2 costs two rows of it, more than the
    binomials (one row each) that the multiset maximum lifts by."""
    long_num = {(i,): 1 for i in range(0, 20, 2)}
    fracs = [_over(Q, {(0,): 1}, (3,)), _over(Q, long_num, (1,))]
    assert sorted(f.exps for f in _common_denominator(fracs)[0]) == [(1,), (3,)]
    fracs[1] = _over(Q, {(0,): 1}, (1,))
    assert [f.exps for f in _common_denominator(fracs)[0]] == [(3,)]


def test_a_binomial_factor_is_immutable_and_hashed_once():
    f = binomial_factor(p(QT, {(0, 0): 1, (2, 4): -1}))
    g = BinomialFactor(QT, (2, 4), -1)
    assert f == g and hash(f) == hash(g) and f is not g and {f: 1}[g] == 1
    assert f != BinomialFactor(QT, (2, 4), 1) and f != (QT, (2, 4), -1)
    assert f.sort_key() == g.sort_key() and repr(f) == "BinomialFactor(1 - q^2*t^4)"
    for change in (lambda: setattr(f, "exps", (1, 1)), lambda: delattr(f, "c")):
        with pytest.raises(AttributeError, match="immutable"):
            change()
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f) and copy._line == f._line == ((1, 2), 2)
    other = BinomialFactor(QT, (1, 3), 1)  # 1 + x^D: its own line
    assert other._line == (other, 1)


_LINE_VARS = {1: Q, 2: QT, 3: ("q", "x", "y")}


@st.composite
def line_sums(draw):
    """Summands over factors 1 - x^(a*d) on one line d, with multiplicities,
    Laurent shifts, integer coefficients, a 1 + x^D factor, and products left
    uncancelled as the formal log makes them; and that 1 + x^D."""
    vars_ = _LINE_VARS[draw(st.integers(1, 3))]
    k = len(vars_)
    d = draw(st.tuples(*[st.integers(0, 2)] * k).filter(any))
    plus = draw(st.tuples(*[st.integers(0, 3)] * k).filter(any))
    zero = (0,) * k
    coeffs = st.integers(-3, 3)
    fracs = []
    for _ in range(draw(st.integers(2, 4))):
        num = draw(st.dictionaries(st.tuples(*[st.integers(-2, 4)] * k), coeffs, max_size=4))
        exps = [tuple(a * v for v in d) for a in draw(st.lists(st.integers(1, 6), max_size=4))]
        fr = _over(vars_, num, *exps)
        if draw(st.booleans()):
            fr = divided_by(fr, p(vars_, {zero: 1, plus: 1}))
        if draw(st.booleans()):
            fr = _unreduced_product(fr, _over(vars_, {zero: 1, d: 1}, *exps[:2]))
        fracs.append(fr.shift(draw(st.tuples(*[st.integers(-2, 2)] * k))))
    return fracs, BinomialFactor(vars_, plus, 1)


@given(line_sums())
@settings(max_examples=120, deadline=None)
def test_a_sum_over_the_lcm_equals_the_multiset_maximum_sum(case):
    """The value, a reduced result, exact carried jets, and 1 + x^D left as it is."""
    fracs, plus = case
    total = frac_sum(_seed_all(fracs))
    assert reference_frac_sum([total, -reference_frac_sum(fracs)]).is_zero()
    for factor, _ in total.denominator_factors():
        with pytest.raises(NotDivisible):
            divide_exact(total.num, factor.as_poly())
    _assert_memo_is_fresh(total.num)
    top = max(fr.den.get(plus, 0) for fr in fracs)
    assert _common_denominator(fracs)[0].get(plus, 0) == top


# -- binomial_product ------------------------------------------------------------


def test_binomial_product_of_no_factors_is_one():
    out = binomial_product(QT, [])
    assert (out.num, out.den) == (one(QT), {})


def test_binomial_product_skips_a_zero_power():
    factors = [(1, (1, 2), 2), (-1, (2, 1), -1)]
    plain = binomial_product(QT, factors)
    with_zero = binomial_product(QT, [factors[0], (-3, (1, 1), 0), factors[1]])
    assert (with_zero.num, with_zero.den) == (plain.num, plain.den)


@pytest.mark.parametrize("c, k, value", [(2, 1, 3), (-1, 2, 0), (2, -1, 3)])
def test_a_constant_factor_is_refused_by_name(c, k, value):
    """1 + c*x^0 is the constant 1 + c, no binomial: binomial_product says so,
    alone or as a fraction's factor."""
    message = re.escape(f"factor 1 + {c}*x^(0,) is the constant {value}, not a binomial")
    with pytest.raises(ValueError, match=message):
        binomial_product(Q, [(c, (0,), k)])
    with pytest.raises(ValueError, match=message):
        FactoredFraction.one(Q) * binomial_product(Q, [(c, (0,), k)])


@pytest.mark.parametrize("k", [-1, 1])
def test_a_zero_coefficient_is_the_factor_one(k):
    f = binomial_product(Q, [(-1, (1,), -2)])
    with_zero = binomial_product(Q, [(0, (1,), k), (-1, (1,), -2)])
    for out in (with_zero, f * binomial_product(Q, [(0, (1,), k)])):
        assert (out.num, out.den) == (f.num, f.den)
    assert binomial_product(Q, [(0, (1,), k)]) == 1


def test_binomial_product_of_negative_powers_is_the_division_chain():
    """Each negative power puts its factor into the denominator, as divided_by does."""
    factors = [(-1, (1, 0), -2), (1, (1, 1), -1), (1, (0, 1), -1), (-1, (2, 1), -3)]
    chain = FactoredFraction.one(QT)
    for c, e, k in factors:
        chain = divided_by(chain, p(QT, {(0, 0): 1, e: c}), -k)
    out = binomial_product(QT, factors)
    assert (out.num, out.den) == (chain.num, chain.den)


def test_binomial_product_reads_its_numerator_without_a_pass(walks):
    """The numerator's jets come from its binomial powers, derivatives included."""
    factors = [
        (1, (1, 2), 3), (-1, (1, 0), -2), (1, (2, 1), 1), (-1, (2, 2), -1), (1, (1, 1), -1)
    ]
    out = binomial_product(QT, factors)
    assert len(out.den) == 3 and walks == []  # carried nonzero values rejected every trial
    assert set(out.num._values) == {f._point for f in out.den}
    assert all(deriv is not None for _, deriv in out.num._values.values())
    _assert_memo_is_fresh(out.num)

