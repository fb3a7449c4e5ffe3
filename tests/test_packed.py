"""The kernels on packed keys against the tuple-keyed reference kernels.

Products, sums, Adams images and exact divisions by binomials run on one int
key per monomial (see charvar.polynomials).  Each is checked here against the
reference kernel on exponent tuples in tests/oracles.py, in one, two and three
variables with Laurent exponents, including exponents at the edge of the
narrowest slot width, where a product or an Adams image must widen, and past
the second width, where the ladder doubles.  The
divisors are the one denominator shape 1 +- x^d, and every other shape is
refused.
"""

import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charvar.invariants as invariants
import charvar.polynomials as polynomials
from charvar.errors import NonIntegerCoefficient, NotDivisible
from charvar.invariants import InvariantCache, attached_checks, compute_invariant
from charvar.polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FLAVOR_XY,
    BinomialFactor,
    FactoredFraction,
    SparsePoly,
    _divide_by_factor,
    _divide_two_term,
    adams,
    adams_poly,
    binomial_product,
    divide_exact,
)
from oracles import (
    binomial_factor,
    tuple_add,
    tuple_divide_two_term,
    tuple_mul,
    tuple_scale,
)

CONTEXTS = {1: FLAVOR_E, 2: FLAVOR_QT, 3: FLAVOR_XY}


def edge(k):
    """The largest exponent size that the narrowest width of k slots holds."""
    return (1 << 30 // k - 1) - 1 if k > 1 else 1 << 40


def far(k):
    """The smallest exponent size that the second width of k > 1 slots does
    not hold, so that the ladder doubles it."""
    return 1 << 60 // k - 1


_coeffs = st.integers(-5, 5).filter(bool)


@st.composite
def polys(draw, k, at_edge=False, min_terms=0, max_terms=5, level=edge):
    """Laurent polynomials in k variables; at_edge draws exponents near
    +-level(k), by default the edge."""
    h = level(k)
    small = st.integers(-4, 5)
    exps = st.sampled_from([-h, 1 - h, -1, 0, 1, h - 1, h]) if at_edge else small
    terms = draw(st.dictionaries(
        st.tuples(*[exps] * k), _coeffs, min_size=min_terms, max_size=max_terms))
    return SparsePoly(CONTEXTS[k].variables, terms)


ks = st.sampled_from([1, 2, 3])


@st.composite
def pairs(draw, at_edge=False):
    k = draw(ks)
    return draw(polys(k, at_edge)), draw(polys(k, at_edge))


def coefficient_types(terms):
    return {e: type(c) for e, c in terms.items()}


@given(st.one_of(pairs(), pairs(at_edge=True)))
@example((SparsePoly(("q", "t"), {(edge(2), -edge(2)): 1}),
          SparsePoly(("q", "t"), {(edge(2), 0): 1, (0, 0): 2})))
@settings(max_examples=200, deadline=None)
def test_product_and_sum_match_the_tuple_kernels(pair):
    a, b = pair
    want = tuple_mul(a.terms, b.terms) if a and b else {}
    got = (a * b).terms
    assert got == want and coefficient_types(got) == coefficient_types(want)
    want = tuple_add(a.terms, b.terms)
    got = (a + b).terms
    assert got == want and coefficient_types(got) == coefficient_types(want)


def tuple_adams(terms, r, flavor):
    twisted = [i for i, v in enumerate(flavor.variables) if v in flavor.twisted]
    return {
        tuple(v * r for v in e): -c if r % 2 == 0 and sum(e[i] for i in twisted) % 2 else c
        for e, c in terms.items()
    }


@given(ks.flatmap(lambda k: polys(k, at_edge=True)), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_adams_image_widens_and_matches_the_tuple_substitution(p, r):
    flavor = CONTEXTS[len(p.vars)]
    assert adams_poly(p, r, flavor).terms == tuple_adams(p.terms, r, flavor)
    # twice, from a kernel-built operand at its own width
    q = p * SparsePoly.one(p.vars)
    assert adams_poly(q, r, flavor).terms == tuple_adams(p.terms, r, flavor)


def reference_quotient(num, factor):
    return tuple_divide_two_term(num.terms, factor.exps, factor.c)


@st.composite
def divisors(draw, k, at_edge=False, level=edge):
    """A divisor 1 + c*x^d in k variables, c = +-1 and d >= 0 nonzero, often
    with several nonzero coordinates; at_edge draws them up to level(k), by
    default the edge."""
    exps = st.sampled_from([0, 1, 2, level(k)]) if at_edge else st.integers(0, 3)
    d = draw(st.tuples(*[exps] * k).filter(any))
    return BinomialFactor(CONTEXTS[k].variables, d, draw(st.sampled_from([1, -1])))


@st.composite
def division_cases(draw):
    """num = a*f, perturbed by a monomial or not, with num built by the kernels
    or from tuples.  Only small numerators are perturbed: a failing division
    may fill a run as long as the numerator's box before it fails."""
    k = draw(ks)
    at_edge = draw(st.booleans())
    a = draw(polys(k, at_edge, min_terms=1))
    f = draw(divisors(k, at_edge))
    num = a * f.as_poly()
    if not at_edge and draw(st.booleans()):
        e = draw(st.tuples(*[st.integers(-6, 6)] * k))
        num = num + SparsePoly.monomial(num.vars, e, draw(_coeffs))
    if draw(st.booleans()):
        num = SparsePoly(num.vars, dict(num.terms))
    return a, f, num


@given(division_cases())
@settings(max_examples=300, deadline=None)
def test_division_matches_the_tuple_long_division(case):
    a, factor, num = case
    if not num:
        return
    want = reference_quotient(num, factor)
    got = _divide_by_factor(num, factor)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.terms == want and coefficient_types(got.terms) == coefficient_types(want)
        assert divide_exact(num, factor.as_poly()) == got
    elif num == a * factor.as_poly():
        pytest.fail("a multiple of f was refused")


@pytest.mark.parametrize("k", [2, 3])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_ladder_doubles_past_its_second_width(k, data):
    """Exponents of size far(k) pack at twice 60 // k bits, and the product,
    sum, exact division and Adams image there match the tuple kernels."""
    a = data.draw(polys(k, True, min_terms=1, level=far))
    b = data.draw(polys(k, True, level=far))
    factor = data.draw(divisors(k, True, level=far))
    r = data.draw(st.integers(1, 4))
    top = max(abs(v) for e in a.terms for v in e)
    assert (polynomials._own(a)[1] > 60 // k) == (top >= far(k))
    want = tuple_mul(a.terms, b.terms) if b else {}
    assert (a * b).terms == want
    assert (a + b).terms == tuple_add(a.terms, b.terms)
    num = a * factor.as_poly()
    got = _divide_by_factor(num, factor)
    assert got is not None and got.terms == reference_quotient(num, factor) == a.terms
    flavor = CONTEXTS[k]
    assert adams_poly(a, r, flavor).terms == tuple_adams(a.terms, r, flavor)


QT = FLAVOR_QT.variables


def test_a_leftover_at_the_top_key_fails():
    """A perturbed top term is left over: no quotient term reaches it."""
    a = SparsePoly(QT, {(0, 0): 1, (2, 1): 5, (1, 3): -3})
    factor = BinomialFactor(QT, (2, 2), 1)  # 1 + q^2*t^2: no test point
    assert factor._point is None
    num = a * factor.as_poly()
    top = max(num.terms, key=lambda e: e[::-1])  # the key order's top
    bad = num + SparsePoly.monomial(QT, top, 1)
    assert _divide_by_factor(bad, factor) is None
    assert reference_quotient(bad, factor) is None
    with pytest.raises(NotDivisible):
        divide_exact(bad, factor.as_poly())


class _Lookups(dict):
    """A key dict that counts the long division's lookups (it reads rem.get)."""

    count = 0

    def get(self, key, default=None):
        self.count += 1
        return dict.get(self, key, default)


def test_a_run_past_its_class_top_fails_at_the_line_bound():
    """(1 + q^(2K+1)) / (1 + q^2): the run from 1 climbs by q^2, with
    alternating signs, towards q^(2K+1) in the other residue class.  1 + q^2
    has no test point, so only the line bound stops the run, after as many
    steps as there are keys; the cap and the top key would allow K."""
    k = 10**6
    num = SparsePoly(("q",), {(0,): 1, (2 * k + 1,): 1})
    f = SparsePoly(("q",), {(0,): 1, (2,): 1})
    assert BinomialFactor(("q",), (2,), 1)._point is None
    start = time.perf_counter()
    with pytest.raises(NotDivisible):
        divide_exact(num, f)
    assert time.perf_counter() - start < 1.0
    rem = _Lookups({0: 1, 2 * k + 1: 1})
    assert _divide_two_term(rem, 2, 1, k) is None and rem.count == 3


def test_a_run_longer_than_the_quotient_box_fails_at_the_cap():
    """Keys 0 and 9 share a class mod 3, but a run 0, 3, 6 needs cap >= 2."""
    assert _divide_two_term({0: 1, 9: -1}, 3, -1, 2) == {0: 1, 3: 1, 6: 1}
    assert _divide_two_term({0: 1, 9: -1}, 3, -1, 1) is None


def test_the_division_widens_past_a_run_that_would_wrap_a_slot():
    """At the narrowest width (h = 2^14 - 1), q^(-h)*t has the key h + 2 of
    q^(h+2), one past the slot's range.  In
        N = (q^(-h) + q^(h-1))*(1 - q) + 1 - q^(-h)*t,
    the run 1, q, q^2, ... of the long division by 1 - q climbs past q^h and
    would wrap into q^(-h)*t, so that keys alone would divide N although
    1 - q^(-h)*t is no multiple of 1 - q.  The division works in a width that
    holds every run and every step past a numerator term: there N fails."""
    w = polynomials._width(2, 1)
    h = (1 << w - 1) - 1
    keys = {-h: 1, 1 - h: -1, h - 1: 1, h: -1, 0: 1, h + 2: -1}
    assert _divide_two_term(dict(keys), 1, -1, 2 * h) is not None
    # built from tuples, N carries no value for the pre-test: the walk decides
    num = SparsePoly(QT, {(-h, 0): 1, (1 - h, 0): -1, (h - 1, 0): 1,
                          (h, 0): -1, (0, 0): 1, (-h, 1): -1})
    assert {polynomials._key(e, w): c for e, c in num.terms.items()} == keys
    with pytest.raises(NotDivisible):
        divide_exact(num, SparsePoly(QT, {(0, 0): 1, (1, 0): -1}))


# -- one polynomial, two forms ----------------------------------------------------


def test_tuple_built_and_kernel_built_polynomials_are_equal_across_widths():
    terms = {(0, 0): 3, (2, -1): 2, (-4, 5): -7}
    built = SparsePoly(QT, terms)
    far = edge(2) + 10  # past the narrowest width's half-range
    wide = built.shift((far, 0)).shift((-far, 0))
    assert wide._packed[1] > polynomials._width(2, 5)
    assert wide._terms is None
    assert wide == built and built == wide
    assert hash(wide) == hash(built)
    narrow = built * SparsePoly.one(QT)
    assert narrow._packed[1] == polynomials._width(2, 5) and narrow == wide == built
    assert hash(narrow) == hash(built)
    assert len({built, wide, narrow}) == 1
    assert wide != built + SparsePoly.one(QT)


def test_threads_that_pack_one_polynomial_at_once_store_consistent_keys():
    """A polynomial built from tuples is packed on first use, by whichever
    thread gets there first; products at two widths race to do so here."""
    wide = SparsePoly.monomial(QT, (edge(2) + 5, 0))  # products with it are wider
    narrow = SparsePoly.one(QT)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            p = SparsePoly(QT, {(i, -i): i + 1 for i in range(200)})
            threads = [
                threading.Thread(target=p.__mul__, args=(wide if i % 2 else narrow,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            keys, width, _ = p._packed
            assert polynomials._decode(keys, width, 2) == p.terms
    finally:
        sys.setswitchinterval(interval)


def test_a_quotient_widened_by_its_walk_is_rekeyed_at_its_own_width(monkeypatch):
    """A numerator whose box fits the narrowest width of two slots (15 bits)
    but whose walk needs the next one (30) leaves a quotient keyed at 15, so
    the kernels that take it later re-pack nothing."""
    variables = FLAVOR_QT.variables
    factor = SparsePoly(variables, {(0, 0): 1, (1, 1): -1})
    quotient = SparsePoly(variables, {(0, 0): 1, (9000, 0): 2, (10, 8000): -3})
    num = quotient * factor
    assert num._packed[1] == 15
    repacks = []
    real = polynomials._keys_at

    def counted(p, w):
        if p._packed[1] != w:
            repacks.append(w)
        return real(p, w)

    monkeypatch.setattr(polynomials, "_keys_at", counted)
    out = divide_exact(num, factor)
    assert out == quotient and out._packed[1] == 15
    assert repacks == [30]  # the walk's own re-pack of the numerator
    del repacks[:]
    small = SparsePoly(variables, {(0, 0): 1, (1, 2): 5})
    assert out * small == quotient * small and out + small == quotient + small
    assert out.shift((3, -2)) == quotient.shift((3, -2))
    assert repacks == []


# -- the cache-serve path never packs -----------------------------------------------


@pytest.fixture
def packs(monkeypatch):
    """Calls of the pack helpers (a whole polynomial, one exponent vector)."""
    calls = []
    for name in ("_keys_at", "_key"):
        real = getattr(polynomials, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(polynomials, name, counted)
    return calls


@pytest.fixture
def decodes(monkeypatch):
    """The key dicts that the terms view decodes, kept alive so that none is mistaken for another."""
    seen = []
    real = polynomials._decode

    def counted(keys, w, k):
        seen.append(keys)
        return real(keys, w, k)

    monkeypatch.setattr(polynomials, "_decode", counted)
    return seen


@pytest.mark.parametrize("kind, n, g", [("E", 3, 2), ("Hqt", 2, 2), ("Hxy", 2, 2), ("PP", 3, 2)])
def test_serving_a_cached_result_never_packs(tmp_path, packs, kind, n, g):
    invariants.clear_memo()
    cache = InvariantCache(tmp_path)
    cache.store(compute_invariant(kind, n, g))
    invariants.clear_memo()
    del packs[:]
    result = cache.load(kind, n, g)
    assert result is not None
    attached_checks(result.kind, n, g, result.polynomial)
    assert result.canonical_bytes == cache.load_bytes(kind, n, g)
    assert compute_invariant(kind, n, g, cache=cache).canonical_bytes == result.canonical_bytes
    assert packs == []


def test_a_computed_result_decodes_its_terms_once(decodes):
    invariants.clear_memo()
    result = compute_invariant("Hqt", 2, 3)
    poly = result.polynomial
    assert poly._packed is not None
    for _ in range(3):
        poly.terms
        attached_checks(result.kind, 2, 3, poly)
        invariants.document_bytes(invariants.polynomial_document(result))
    assert sum(keys is poly._packed[0] for keys in decodes) == 1


# -- the one Fraction of a cold compute -------------------------------------------


def test_a_cold_compute_normalizes_no_factor_and_builds_one_fraction(monkeypatch):
    """On a cold Hqt n=3 g=3 every denominator factor is built as 1 +- x^d,
    with nothing to normalize, and no coefficient leaves the ints: the one
    Fraction built is invariant_from_layer's 1/n."""
    built = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    invariants.clear_memo()
    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic bypasses __new__ there
        real_coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: built.append((n, d)) or real_coprime(n, d)))
    compute_invariant("hqt", 3, 3)
    monkeypatch.undo()
    invariants.clear_memo()
    assert built == [(1, 3)]


# -- rational scales and shape checks ------------------------------------------------


@given(ks.flatmap(lambda k: polys(k, min_terms=1)), st.integers(-6, 6).filter(bool),
       st.integers(2, 6), st.booleans())
@example(SparsePoly(QT, {(0, 0): 4, (1, 2): 6, (2, 0): 3}), 1, 2, False)  # 3 does not divide
@example(SparsePoly(QT, {(0, 0): 4, (1, 2): -6}), 3, 2, False)
@settings(max_examples=200, deadline=None)
def test_a_fraction_scale_matches_the_fraction_path(p, num, den, multiple):
    """A polynomial divides by the denominator exactly in ints where it can,
    with the terms of the Fraction path, and raises NonIntegerCoefficient
    where a coefficient of that path is not an integer."""
    if multiple:  # the exact division then succeeds
        p = p.scale(den)
    c = Fraction(num, den)
    want = tuple_scale(p.terms, c)
    if want is None:
        with pytest.raises(NonIntegerCoefficient):
            p.scale(c)
        return
    got = p.scale(c)
    assert got.terms == want and coefficient_types(got.terms) == coefficient_types(want)


def test_a_hull_with_a_negative_corner_is_scanned():
    """(1 + q^-1) + (-q^-1) = 1: the sum's box keeps the corner -1."""
    total = SparsePoly(("q",), {(0,): 1, (-1,): 1}) + SparsePoly(("q",), {(-1,): -1})
    assert polynomials._box(total) == ((-1,), (0,)) and total.terms == {(0,): 1}
    assert not total.has_negative_exponents()
    laurent = SparsePoly.one(("q",)) * SparsePoly(("q",), {(0,): 1, (-1,): 1})
    assert laurent.has_negative_exponents()


# -- the one denominator shape -----------------------------------------------------


@pytest.mark.parametrize("flavor", [FLAVOR_E, FLAVOR_QT, FLAVOR_XY, FLAVOR_PURE], ids=lambda f: f.name)
def test_direct_factors_equal_the_normalized_ones(flavor):
    """Every flavor's cell factor 1 + c*x^e with h <= 4, l <= 3 is the
    BinomialFactor (c, e) as written, and for r <= 3 its Adams image is the
    factor read off the terms of the substituted binomial, with numerator 1."""
    one = SparsePoly.one(flavor.variables)
    zero = (0,) * len(flavor.variables)
    for c, exps, _ in flavor.cell_factors:
        for h in range(1, 5):
            for l in range(4):
                e = exps(h, l)
                factor = BinomialFactor(flavor.variables, e, c)
                binom = SparsePoly(flavor.variables, {zero: 1, e: c})
                assert factor.as_poly() == binom and binomial_factor(binom) == factor
                for r in (2, 3):
                    got = adams(FactoredFraction._reduced(one, {factor: 1}), r, flavor)
                    want = binomial_factor(adams_poly(binom, r, flavor))
                    assert got.den == {want: 1} and got.num == one


@pytest.mark.parametrize("c, e", [(1, (-1, 2)), (-3, (0, -2)), (Fraction(1, 2), (1, 0)), (2, (3, 1))])
def test_other_binomials_are_refused(c, e):
    """A negative exponent, or a coefficient other than +-1, is no
    BinomialFactor, and no divisor: 1 + c*x^e is refused either way.  With
    a Fraction c it is no polynomial either."""
    with pytest.raises(ValueError, match="no binomial factor"):
        BinomialFactor(QT, e, c)
    with pytest.raises(ValueError, match="no binomial factor"):
        binomial_product(QT, [(c, e, -1)])
    if type(c) is not int:
        with pytest.raises(TypeError):
            SparsePoly(QT, {(0, 0): 1, e: c})
        return
    div = SparsePoly(QT, {(0, 0): 1, e: c})
    with pytest.raises(ValueError, match=re.escape(f"divisor {polynomials.poly_text(div)} ")):
        divide_exact(div, div)


@pytest.mark.parametrize("variables, e, c", [
    (QT, (0, 0), -1),
    (QT, (1,), -1),
    (("q", "x", "y"), (1, 1), 1),
], ids=["zero-vector", "short-vector", "long-context"])
def test_a_binomial_factor_refuses_other_exponent_vectors(variables, e, c):
    with pytest.raises(ValueError, match="no binomial factor"):
        BinomialFactor(variables, e, c)


@pytest.mark.parametrize("div", [
    SparsePoly(QT, {(1, 0): 1, (0, 0): -1}),
    SparsePoly(QT, {(0, 1): 1, (1, 0): -1}),
    SparsePoly(QT, {(0, 0): 2, (1, 0): -1}),
    SparsePoly.zero(QT),
    SparsePoly.monomial(QT, (1, 2), 1),
], ids=["q-1", "t-q", "2-q", "zero", "monomial"])
def test_divide_exact_refuses_every_other_divisor_by_name(div):
    num = SparsePoly(QT, {(0, 0): 1, (2, 0): -1})
    with pytest.raises(ValueError, match=re.escape(f"divisor {polynomials.poly_text(div)} ")):
        divide_exact(num, div)
