"""The kernels on packed keys against the tuple-keyed reference kernels.

Products, sums, Adams images and exact divisions by binomials run on one int
key per monomial (see charvar.polynomials).  Each is checked here against the
reference kernel on exponent tuples in tests/oracles.py, in one, two and three
variables with Laurent exponents, including exponents at the edge of the
narrowest slot width, where a product or an Adams image must widen.
"""

import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charvar.invariants as invariants
import charvar.polynomials as polynomials
from charvar.errors import NotDivisible
from charvar.invariants import InvariantCache, attached_checks, compute_invariant
from charvar.polynomials import (
    FLAVOR_E,
    FLAVOR_PURE,
    FLAVOR_QT,
    FLAVOR_XY,
    FactoredFraction,
    SparsePoly,
    _divide_by_factor,
    _divide_two_term,
    _factor_of,
    _fold_factor,
    adams,
    adams_poly,
    divide_exact,
    normalize_factor,
)
from oracles import tuple_add, tuple_divide_two_term, tuple_mul, tuple_scale

CONTEXTS = {1: FLAVOR_E, 2: FLAVOR_QT, 3: FLAVOR_XY}


def edge(k):
    """The largest exponent size that the narrowest width of k slots holds."""
    return (1 << 30 // k - 1) - 1 if k > 1 else 1 << 40


_coeffs = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)).filter(bool)


@st.composite
def polys(draw, k, at_edge=False, min_terms=0, max_terms=5):
    """Laurent polynomials in k variables; at_edge draws exponents near +-edge(k)."""
    h = edge(k)
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


def flag_is_exact(p):
    """The packed form's frac is set exactly when a coefficient is a Fraction."""
    return polynomials._own(p)[3] == (Fraction in coefficient_types(p.terms).values())


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
    assert all(map(flag_is_exact, (a, b, a * b, a + b, -a, a.shift((1,) * len(a.vars)))))


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
    assert flag_is_exact(adams_poly(q, r, flavor))


def reference_quotient(num, factor):
    return tuple_divide_two_term(
        num.terms, factor.low, factor.low_coeff, factor._direction, factor.high_coeff)


@st.composite
def divisors(draw, k, at_edge=False):
    """A two-term divisor c0*x^e0 + c1*x^e1 in k variables, any signs and scale."""
    h = edge(k)
    exps = st.sampled_from([-h, -1, 0, 1, 2, h]) if at_edge else st.integers(-3, 3)
    e0 = draw(st.tuples(*[exps] * k))
    e1 = draw(st.tuples(*[exps] * k).filter(lambda e: e != e0))
    c0 = draw(st.sampled_from([1, -1, 2, 3, -5]))
    c1 = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]))
    return SparsePoly(CONTEXTS[k].variables, {e0: c0, e1: c1})


@st.composite
def division_cases(draw):
    """num = a*f, perturbed by a monomial or not, with num built by the kernels
    or from tuples.  Only small numerators are perturbed: a failing division
    may fill a run as long as the numerator's box before it fails."""
    k = draw(ks)
    at_edge = draw(st.booleans())
    a = draw(polys(k, at_edge, min_terms=1))
    f = draw(divisors(k, at_edge))
    num = a * f
    if not at_edge and draw(st.booleans()):
        e = draw(st.tuples(*[st.integers(-6, 6)] * k))
        num = num + SparsePoly.monomial(num.vars, e, draw(_coeffs))
    if draw(st.booleans()):
        num = SparsePoly(num.vars, dict(num.terms))
    return a, f, num


@given(division_cases())
@settings(max_examples=300, deadline=None)
def test_division_matches_the_tuple_long_division(case):
    a, f, num = case
    if not num:
        return
    factor, shift, scale = normalize_factor(f)
    want = reference_quotient(num, factor)
    got = _divide_by_factor(num, factor)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.terms == want and coefficient_types(got.terms) == coefficient_types(want)
        assert flag_is_exact(got)
        assert divide_exact(num, f) == got.shift(tuple(-v for v in shift)).scale(1 / Fraction(scale))
    elif num == a * f:
        pytest.fail("a multiple of f was refused")


QT = FLAVOR_QT.variables


def test_a_leftover_at_the_top_key_fails():
    """A perturbed top term is left over: no quotient term reaches it."""
    a = SparsePoly(QT, {(0, 0): 1, (2, 1): Fraction(1, 2), (1, 3): -3})
    f = SparsePoly(QT, {(0, 0): 2, (1, 1): -1})  # 2 - q*t: no test point
    num = a * f
    top = max(num.terms, key=lambda e: e[::-1])  # the key order's top
    bad = num + SparsePoly.monomial(QT, top, 1)
    factor = normalize_factor(f)[0]
    assert _divide_by_factor(bad, factor) is None
    assert reference_quotient(bad, factor) is None
    with pytest.raises(NotDivisible):
        divide_exact(bad, f)


def test_a_run_past_its_class_top_fails_at_the_line_bound():
    """(1 + q^(2K+1)) / (2 + q^2): the run from 1 climbs by q^2, with halving
    coefficients, towards q^(2K+1) in the other residue class; the line bound
    stops it after as many steps as there are keys."""
    k = 10**6
    num = SparsePoly(("q",), {(0,): 1, (2 * k + 1,): 1})
    f = SparsePoly(("q",), {(0,): 2, (2,): 1})
    start = time.perf_counter()
    with pytest.raises(NotDivisible):
        divide_exact(num, f)
    assert time.perf_counter() - start < 1.0
    assert _divide_two_term({0: 1, 2 * k + 1: 1}, 2, 2, 1, k) is None


def test_a_run_longer_than_the_quotient_box_fails_at_the_cap():
    """Keys 0 and 9 share a class mod 3, but a run 0, 3, 6 needs cap >= 2."""
    assert _divide_two_term({0: 1, 9: -1}, 3, 1, -1, 2) == {0: 1, 3: 1, 6: 1}
    assert _divide_two_term({0: 1, 9: -1}, 3, 1, -1, 1) is None


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
    assert _divide_two_term(dict(keys), 1, 1, -1, 2 * h) is not None
    half = Fraction(1, 2)  # a rational numerator skips the pre-test
    num = SparsePoly(QT, {(-h, 0): half, (1 - h, 0): -half, (h - 1, 0): half,
                          (h, 0): -half, (0, 0): half, (-h, 1): -half})
    assert {polynomials._key(e, w): 2 * c for e, c in num.terms.items()} == keys
    with pytest.raises(NotDivisible):
        divide_exact(num, SparsePoly(QT, {(0, 0): 1, (1, 0): -1}))


@given(ks.flatmap(lambda k: polys(k, min_terms=1)), st.data())
@settings(max_examples=150, deadline=None)
def test_divide_exact_by_a_divisor_with_another_leading_coefficient(a, data):
    k = len(a.vars)
    f = data.draw(divisors(k).filter(lambda f: normalize_factor(f)[0].low_coeff != 1))
    num = a * f
    assert divide_exact(num, f) == a
    factor = normalize_factor(f)[0]
    assert reference_quotient(num, factor) is not None


# -- one polynomial, two forms ----------------------------------------------------


def test_tuple_built_and_kernel_built_polynomials_are_equal_across_widths():
    terms = {(0, 0): 3, (2, -1): Fraction(1, 2), (-4, 5): -7}
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
            keys, width, _, _ = p._packed
            assert polynomials._decode(keys, width, 2) == p.terms
    finally:
        sys.setswitchinterval(interval)


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


# -- integral results of Fraction inputs ------------------------------------------


def test_integral_results_of_fraction_inputs_are_stored_as_int():
    """A kernel that a Fraction enters scans its result and stores integral values as int."""
    q = SparsePoly.variable(("q",), "q")
    half = q.scale(Fraction(1, 2))
    f = SparsePoly(("q",), {(0,): 2, (1,): -1})  # 2 - q: the division multiplies by 1/2
    two_thirds = SparsePoly(QT, {(1, 0): Fraction(2, 3), (0, 1): 4})
    cases = [
        half + half,
        half * q.scale(2),
        two_thirds.scale(Fraction(3, 2)),
        divide_exact(f * SparsePoly(("q",), {(0,): 1, (2,): -3, (3,): 5}), f),
        SparsePoly(QT, {(0, 0): 1, (1, 1): Fraction(1, 2)}) ** 2 * 4,
    ]
    for p in cases:
        assert p and set(coefficient_types(p.terms).values()) == {int}, p
        assert polynomials._own(p)[3] is False
    assert (half + q).terms == {(1,): Fraction(3, 2)} and flag_is_exact(half + q)


def test_a_cold_compute_scans_no_dict(monkeypatch):
    """Every numerator of the layer pipeline has int coefficients, and the
    final scale by 1/2 divides them exactly in ints, so a cold Hqt n=2 g=3
    scans no dict for Fractions."""
    scanned = []
    real = polynomials._ints
    monkeypatch.setattr(polynomials, "_ints", lambda out: scanned.append(out) or real(out))
    invariants.clear_memo()
    poly = compute_invariant("Hqt", 2, 3).polynomial
    invariants.clear_memo()
    assert scanned == [] and poly.is_integral() and poly._packed[3] is False


def test_a_cold_compute_normalizes_no_factor_and_builds_one_fraction(monkeypatch):
    """On a cold Hqt n=3 g=3 every denominator factor is built directly
    (_factor_of) and no coefficient leaves the ints: the one Fraction built
    is invariant_from_layer's 1/n."""
    normalized, built = [], []
    real_normalize = polynomials.normalize_factor
    monkeypatch.setattr(polynomials, "normalize_factor",
                        lambda p: normalized.append(p) or real_normalize(p))
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
    assert normalized == [] and built == [(1, 3)]


# -- rational scales and shape checks ------------------------------------------------


@given(ks.flatmap(lambda k: polys(k, min_terms=1)), st.integers(-6, 6).filter(bool),
       st.integers(2, 6), st.booleans())
@example(SparsePoly(QT, {(0, 0): 4, (1, 2): 6, (2, 0): 3}), 1, 2, False)  # 3 does not divide
@example(SparsePoly(QT, {(0, 0): 4, (1, 2): -6}), 3, 2, False)
@settings(max_examples=200, deadline=None)
def test_a_fraction_scale_matches_the_fraction_path(p, num, den, multiple):
    """An int polynomial divides by the denominator exactly in ints while it
    can; the terms, their types and the Fraction flag match the Fraction path."""
    if multiple and p.is_integral():  # the exact path in ints then succeeds
        p = p.scale(den)
    c = Fraction(num, den)
    got = p.scale(c)
    want = tuple_scale(p.terms, c)
    assert got.terms == want and coefficient_types(got.terms) == coefficient_types(want)
    assert flag_is_exact(got) and got.is_integral() == (Fraction not in map(type, want.values()))


def test_a_hull_with_a_negative_corner_is_scanned():
    """(1 + q^-1) + (-q^-1) = 1: the sum's box keeps the corner -1."""
    total = SparsePoly(("q",), {(0,): 1, (-1,): 1}) + SparsePoly(("q",), {(-1,): -1})
    assert polynomials._box(total) == ((-1,), (0,)) and total.terms == {(0,): 1}
    assert not total.has_negative_exponents()
    laurent = SparsePoly.one(("q",)) * SparsePoly(("q",), {(0,): 1, (-1,): 1})
    assert laurent.has_negative_exponents()


# -- denominator factors built directly --------------------------------------------


@pytest.mark.parametrize("flavor", [FLAVOR_E, FLAVOR_QT, FLAVOR_XY, FLAVOR_PURE], ids=lambda f: f.name)
def test_direct_factors_equal_the_normalized_ones(flavor):
    """Every flavor's cell factor 1 + c*x^e with h <= 4, l <= 3, and its Adams
    images for r <= 3, come out as normalize_factor would split them."""
    one = SparsePoly.one(flavor.variables)
    zero = (0,) * len(flavor.variables)
    for c, exps, _ in flavor.cell_factors:
        for h in range(1, 5):
            for l in range(4):
                e = exps(h, l)
                split = _factor_of(flavor.variables, c, e)
                binom = SparsePoly(flavor.variables, {zero: 1, e: c})
                assert split == normalize_factor(binom) and split[1:] == (zero, 1)
                for r in (2, 3):
                    got = adams(FactoredFraction._reduced(one, {split[0]: 1}), r, flavor)
                    den = {}
                    image = normalize_factor(adams_poly(binom, r, flavor))
                    want = _fold_factor(one, den, image, 1)
                    assert got.den == den and got.num == want == one


@pytest.mark.parametrize("c, e", [(1, (-1, 2)), (-3, (0, -2)), (Fraction(1, 2), (1, 0)), (2, (3, 1))])
def test_other_binomials_take_the_normalized_factor(c, e):
    """A negative exponent or a rational coefficient goes through normalize_factor;
    1 + 2*q^3*t, with a coefficient other than +-1, is canonical as written."""
    split = _factor_of(QT, c, e)
    assert split == normalize_factor(SparsePoly(QT, {(0, 0): 1, e: c}))
    assert split[1:] != ((0, 0), 1) or e == (3, 1)
