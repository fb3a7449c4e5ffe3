"""Exact sparse Laurent-polynomial arithmetic over the integers.

A polynomial in k variables maps exponent vectors (one signed integer per
variable of a fixed variable context) to nonzero integer coefficients.  The
kernels keep these terms in a dictionary keyed by one int per monomial, its
Kronecker key with balanced slots of w bits:

    key(e) = e_0 + e_1*2^w + ... + e_(k-1)*2^(w*(k-1)),   |e_i| < 2^(w-1).

On vectors inside that half-range the key is one-to-one, and it orders them
lexicographically with the last variable most significant.  The map is a
group homomorphism, so a product's key is the sum of its factors' keys, a
monomial shift adds one int and the Adams substitution x -> x^r multiplies
every key by r.  For k = 1 the key is the exponent itself (w = 0).

A packed polynomial carries its exponent box (lo_i, hi_i), which holds its
support.  The box is exact when packed from exponent tuples, the sum of the
operands' boxes for a product, moved with a shift and scaled by r with an
Adams image.  For an exact quotient N / f it is box(N) - box(f): the Newton
polytope of a product is the Minkowski sum of its factors' (Ostrowski).  For
a sum it is the hull.  Slot widths follow from boxes alone: an operation
works in the narrowest width of the ladder floor(30/k), floor(60/k), then
doubling, whose half-range holds the boxes of its operands and of its result
(for a division, a box widened as _divide_by_factor proves), and an operand
packed at another width is re-packed first.  So no exponent wraps, and no
input is refused.  Every case measured stays on the first width (|e_i| <= 812
of 16,383 at Hqt n=10 g=2, <= 374 of 511 at Hxy n=6 g=3); the wider ones are
for larger inputs.  ``binomial_product`` expands a binomial's power term by
term, and ``SparsePoly.__pow__`` is square-and-multiply.

``SparsePoly.terms`` is the public view, dict[tuple[int, ...], int]; it is
decoded from the packed form on first use and memoized.  A polynomial built
from exponent tuples is packed only when a kernel first needs it, so reading
a cached document, the checks and the documents never pack.  Coefficients
are ints, read through operator.index (a Fraction raises TypeError): the
invariants are integer polynomials, every numerator of the layer pipeline
has integer coefficients, and a printed closed form sums integer rows over
one common denominator.  A rational enters in two places only: ``scale`` by
a rational whose denominator divides every coefficient (the layer's 1/n and
a closed form's 1/D; an inexact one raises NonIntegerCoefficient), and a
value of ``specialize``, which may return a rational scalar but refuses a
polynomial with a non-integer coefficient.  The zero polynomial has no
terms; negative exponents are allowed everywhere (Laurent support is
required by the hook normalizations).

On top of the polynomials sits FactoredFraction: a numerator polynomial
divided by a multiset of binomial factors 1 + c*x^d with c = +-1 and d >= 0
nonzero, such as 1 - q^3*t^4.  The hook terms, their Adams images and the
printed closed forms have no other denominators, so exact division by these
binomials replaces general multivariate gcd computation, and a BinomialFactor
is the only divisor: ``divide_exact`` takes 1 +- x^d and refuses any other.
Most trial divisions fail, so ``_divide_by_factor`` first runs a pre-test that
can only reject: the numerator's value modulo the prime 2^61 - 1 at a fixed
point where x^d = -c, i.e. on the binomial's zero set.  A multiple of the
binomial vanishes there (its quotient has integer coefficients too), so a
nonzero value proves the division fails.  A zero or unknown value gives no
verdict, and the exact division decides: a one-dimensional long division of
the keys by 1 + c*z^D, with D the key of d, walked upward.  A run of quotient
terms that meets no numerator term is bounded by the top key of its residue
class mod D, the line bound.

A sum of fractions is taken over the lcm of their denominators, line by line.
A factor 1 - x^(k*d) with d primitive is the product of the cyclotomic
Phi_j(x^d) over j | k, so factors on one line d share components, and the
multiset maximum of the summands' binomials overstates the lcm: a sum over it
lifts a summand by a factor that the total then divides back out.
``frac_sum`` drops such copies where the lifts cost no more, and lifts each
summand by its cofactor in closed form: binomials, times (1 - x^(b*d)) /
(1 - x^(k*d)) = sum_(i < b/k) x^(i*k*d) where its 1 - x^(k*d) is matched to
a 1 - x^(b*d) of the common denominator.

Evaluation at a test point is a ring homomorphism from the integer Laurent
polynomials to the integers modulo the prime, and so is evaluation at the
point moved to first order along one coordinate x_j: the map takes N to its
jet (phi(N), phi(D*N)), with D = x_j*d/dx_j, and multiplies jets as
(a0, a1)*(b0, b1) = (a0*b0, a0*b1 + a1*b0).  A jet is memoized on its
polynomial and carried into the results of the operations that build
numerators, without reading the result: negation, an integer scale and a
monomial shift; a product (the Leibniz rule on its factors' jets), of two
fractions or of a summand and its cofactor, whose closed form gives its jets,
when a fraction sum lifts it (the total's jet is the sum of its lifts'); an
exact quotient by a binomial f (the quotient rule where phi(f) is nonzero, and
phi(D*N)/phi(D*f) on f's own zero set, where the derivative of the quotient is
unknown); and the numerator of a product of binomial powers (from its powers,
in ``binomial_product``, which builds every hook term).  A derivative may be
unknown, never guessed, and an unknown part times 0 is 0: a lift by a cofactor
that vanishes at a point keeps a known value there.  The pre-test reads only
carried values (and a factor's or monomial's closed form): a numerator with
none goes straight to the long division, which costs about what a pass over
its terms would.  Values are lost where an operand's was, and where no rule
builds the numerator: a factor that a layer's normalization or an Adams
substitution brings in.

The monomial order used for canonical output and for sorting binomial
factors is graded lexicographic, ascending, with the variable order of the
context; the long division walks the key order instead.  All values are
immutable after construction (a polynomial's packed form, its decoded view
and its memo of pre-test jets only cache what its terms determine); every
operation is a pure function, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd
from operator import add, index, mul, neg, sub

from .errors import (
    ContextError,
    NegativeExponentAtZero,
    NonIntegerCoefficient,
    NotDivisible,
    NotPolynomial,
)


def _gl_key(exps):
    """Graded-lexicographic sort key."""
    return (sum(exps), exps)


@dataclass(frozen=True)
class Flavor:
    """One generating function as data: its variables, hook term and normalization.

    ``twisted`` lists the variables v substituted as v -> -(-v)^r by the Adams
    operations; the others substitute plainly as v -> v^r.

    Every factor is a triple (c, exps, power) meaning (1 + c*x^exps)^power; a
    negative power divides, and a factor that can take one has c = +-1 and
    exps >= 0, so that it is a BinomialFactor.  The term of a partition at
    genus g is

        x^(leg_shift * (1-g) * sum-of-legs) * prod_z prod_cell_factors

    where in ``cell_factors`` exps is a function of the cell's (hook, leg) and
    power a function of g, and the product runs over all cells z, or only over
    the cells with arm 0 when ``armless_only`` is set.  With h and l the hook
    and leg of z, the four flavors are

      E     prod_z [ q^-l (1-q^h) ]^(2g-2)
      qt    prod_z (qt^2)^((2-2g)l) (1+q^h t^(2l+1))^2g
                     / [ (1-q^h t^(2l+2)) (1-q^h t^2l) ]
      xy    prod_z (qxy)^((2-2g)l) (1+q^h y^l x^(l+1))^g (1+q^h x^l y^(l+1))^g
                     / [ (1-q^h (xy)^(l+1)) (1-q^h (xy)^l) ]
      pure  t^(4(1-g) sum-of-legs) prod_{z : a(z)=0} 1 / (1-t^2h)

    The rank-n layer V_n becomes the invariant after dividing by the rank-one
    term (the cell factors at the single cell h=1, l=0) and multiplying by
    x^((leg_shift/2) * n(n-1)(g-1)).
    """

    name: str
    variables: tuple[str, ...]
    twisted: tuple[str, ...]
    cell_factors: tuple
    leg_shift: tuple[int, ...]
    armless_only: bool = False


FLAVOR_E = Flavor(
    "E", ("q",), (),
    cell_factors=((-1, lambda h, l: (h,), lambda g: 2 * g - 2),),
    leg_shift=(2,),
)
FLAVOR_QT = Flavor(
    "qt", ("q", "t"), ("t",),
    cell_factors=(
        (1, lambda h, l: (h, 2 * l + 1), lambda g: 2 * g),
        (-1, lambda h, l: (h, 2 * l + 2), lambda g: -1),
        (-1, lambda h, l: (h, 2 * l), lambda g: -1),
    ),
    leg_shift=(2, 4),
)
FLAVOR_XY = Flavor(
    "xy", ("q", "x", "y"), ("x", "y"),
    cell_factors=(
        (1, lambda h, l: (h, l + 1, l), lambda g: g),
        (1, lambda h, l: (h, l, l + 1), lambda g: g),
        (-1, lambda h, l: (h, l + 1, l + 1), lambda g: -1),
        (-1, lambda h, l: (h, l, l), lambda g: -1),
    ),
    leg_shift=(2, 2, 2),
)
FLAVOR_PURE = Flavor(
    "pure", ("t",), (),
    # (1-t^2h), not (t^2h-1): fixed by the n=1 layer 1/(1-t^2) giving PP_1=1
    # and by positivity/leading-coefficient of every cross-checked case.
    cell_factors=((-1, lambda h, l: (2 * h,), lambda g: -1),),
    leg_shift=(4,),
    armless_only=True,
)


class SparsePoly:
    """Immutable sparse Laurent polynomial in a fixed variable context.

    A polynomial built from exponent tuples holds them in ``_terms`` until a
    kernel first needs its packed form; a kernel's result holds only the
    packed form, ``_packed`` = (keys, width, box): {key: coefficient} at that
    slot width and the exponent box ((lo, ...), (hi, ...)), None when it has
    no terms.  ``terms`` decodes the keys once.  ``_values`` is a private memo
    of the pre-test's jets, {point: (value, derivative)}, or None before the
    first jet (see _jet).
    """

    __slots__ = ("vars", "_terms", "_packed", "_values")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean = {}
        if terms:
            nvars = len(variables)
            for exps, c in terms.items():
                if len(exps) != nvars:
                    _exponents(exps, variables)  # raises
                c = index(c)
                if c:
                    clean[tuple(exps)] = c
        _init(self, variables, clean, None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def _raw(cls, variables, terms):
        """Internal constructor for already-clean tuple-keyed term dicts."""
        return _init(object.__new__(cls), variables, terms, None)

    @classmethod
    def _from_keys(cls, variables, keys, width, box):
        """Internal constructor for a kernel's result: clean keys at width, in box."""
        return _init(object.__new__(cls), variables, None, (keys, width, box if keys else None))

    @classmethod
    def zero(cls, variables):
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables):
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables, name, power=1):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls._raw(variables, {tuple(exps): 1})

    @classmethod
    def monomial(cls, variables, exps, c=1):
        return cls(variables, {tuple(exps): c})

    # -- queries ----------------------------------------------------------

    @property
    def terms(self):
        """The terms as {exponent tuple: coefficient}, decoded once from the keys."""
        terms = self._terms
        if terms is None:
            keys, w, _ = self._packed
            terms = _decode(keys, w, len(self.vars))
            object.__setattr__(self, "_terms", terms)
        return terms

    def is_zero(self):
        return not (self._terms if self._packed is None else self._packed[0])

    def __bool__(self):
        return not self.is_zero()

    def __len__(self):
        return len(self._terms if self._packed is None else self._packed[0])

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def coefficient(self, exps):
        return self.terms.get(_exponents(exps, self.vars), 0)

    def sorted_terms(self):
        """Terms in ascending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _gl_key(t[0]))

    def degree_in(self, name):
        """Largest exponent of one variable (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def min_exponents(self):
        """Componentwise minimum exponent vector over the support (ValueError
        for the zero polynomial, which has none)."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no minimum exponents")
        its = iter(self.terms)
        lo = list(next(its))
        for e in its:
            for i, v in enumerate(e):
                if v < lo[i]:
                    lo[i] = v
        return tuple(lo)

    # -- arithmetic -------------------------------------------------------

    def _check_context(self, other):
        if self.vars != other.vars:
            raise ContextError(f"context mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, int):
                return NotImplemented
            other = SparsePoly.constant(self.vars, other)
        self._check_context(other)
        _, _, ba = _own(self)
        _, _, bb = _own(other)
        box = bb if ba is None else ba if bb is None else (
            tuple(map(min, ba[0], bb[0])), tuple(map(max, ba[1], bb[1])))
        w = _width_of(len(self.vars), box)
        a, b = _keys_at(self, w), _keys_at(other, w)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for e, c in b.items():
            v = get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return SparsePoly._from_keys(self.vars, out, w, box)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, (SparsePoly, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other) if isinstance(other, int) else NotImplemented
        self._check_context(other)
        _, _, ba = _own(self)
        _, _, bb = _own(other)
        if ba is None or bb is None:
            return SparsePoly.zero(self.vars)
        box = (tuple(map(add, ba[0], bb[0])), tuple(map(add, ba[1], bb[1])))
        w = _width_of(len(self.vars), ba, bb, box)
        a, b = _keys_at(self, w), _keys_at(other, w)
        if len(a) > len(b):
            a, b = b, a
        c0 = a.get(0, 0)  # a's constant row is a copy of b, scaled unless c0 = 1
        out = dict(b) if c0 == 1 else {e: c0 * c for e, c in b.items()} if c0 else {}
        get = out.get
        for ea, ca in a.items():
            if not ea:
                continue
            for eb, cb in b.items():
                e = ea + eb
                v = get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
        return SparsePoly._from_keys(self.vars, out, w, box)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by an int, or by a Fraction whose denominator divides every
        coefficient; an inexact Fraction raises NonIntegerCoefficient."""
        if isinstance(c, Fraction):
            p, q = c.numerator, c.denominator
            if q != 1:
                keys, w, box = _own(self)
                bad = next((v for v in keys.values() if v % q), None)
                if bad is not None:
                    raise NonIntegerCoefficient(f"scaling by {c} gives the coefficient {bad * c}")
                return SparsePoly._from_keys(self.vars, {e: v // q * p for e, v in keys.items()}, w, box)
            c = p
        c = index(c)
        if not c:
            return SparsePoly.zero(self.vars)
        if c == 1:
            return self
        keys, w, box = _own(self)
        out = SparsePoly._from_keys(self.vars, {e: v * c for e, v in keys.items()}, w, box)
        return _carry(self, out, lambda pt: (c, 0))

    def shift(self, exps):
        """Multiply by the (Laurent) monomial with the given exponents."""
        exps = _exponents(exps, self.vars)
        if not any(exps):
            return self
        _, _, old = _own(self)
        box = old and (tuple(map(add, old[0], exps)), tuple(map(add, old[1], exps)))
        w = _width_of(len(exps), old, box)
        s = _key(exps, w)
        out = SparsePoly._from_keys(
            self.vars, {e + s: c for e, c in _keys_at(self, w).items()}, w, box
        )
        return _carry(self, out, lambda pt: _monomial_jet(exps, pt))

    def __pow__(self, n):
        """Square-and-multiply (binomial_product expands a binomial's power itself)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a non-negative integer")
        result = SparsePoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- substitution ------------------------------------------------------

    def specialize(self, assignment):
        """Substitute some variables by rational values or other variables.

        ``assignment`` maps a subset of the context's variables to an int or a
        Fraction (another value, a float too, raises TypeError) or to a variable
        name (an existing variable, a shared new one, or several sources fused
        into one; fused exponents add).  Returns a SparsePoly in the remaining
        context, or a plain rational (int when integral) if no variables
        remain.  A nonzero int value at a positive exponent is multiplied in as
        an int; zero values, negative exponents and Fractions go through Fraction.
        A result that keeps a variable must have integer coefficients: one
        that would not raises NonIntegerCoefficient.
        """
        for v, t in assignment.items():
            if v not in self.vars:
                raise ContextError(f"cannot specialize unknown variable {v!r}")
            if not isinstance(t, (int, Fraction, str)):
                raise TypeError(f"cannot specialize {v} to {t!r}: not an int, a Fraction or a name")
        targets = [assignment.get(v, v) for v in self.vars]
        # the kept variables, then the new names in order of first use
        names = [v for v in self.vars if v not in assignment]
        names += [t for t in targets if isinstance(t, str)]
        index = {v: i for i, v in enumerate(dict.fromkeys(names))}
        out = {}
        for e, c in self.terms.items():
            coeff = c
            new_e = [0] * len(index)
            for v, t, k in zip(self.vars, targets, e):
                if isinstance(t, str):
                    new_e[index[t]] += k
                elif k == 0:
                    continue
                elif k > 0 and type(t) is int and t:
                    coeff = coeff * t**k
                else:
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
        out = {e: c.numerator if c.denominator == 1 else c for e, c in out.items() if c}
        if not index:
            return out.get((), 0)
        bad = next((c for c in out.values() if type(c) is not int), None)
        if bad is not None:
            raise NonIntegerCoefficient(f"specializing {assignment} gives the coefficient {bad}")
        return SparsePoly._raw(tuple(index), out)

    def has_negative_exponents(self):
        if self._packed and self._packed[2] and min(self._packed[2][0], default=0) >= 0:
            return False  # the box holds the support (a sum's is a hull)
        return any(any(k < 0 for k in e) for e in self.terms)

    def is_integral(self):
        """True: every coefficient is an int by construction."""
        return True

    def __repr__(self):
        return f"SparsePoly({'*'.join(self.vars) or '-'}: {poly_text(self)})"


# -- packed keys ---------------------------------------------------------------


def _exponents(exps, variables):
    """exps as a tuple, ContextError unless it has one entry per variable."""
    exps = tuple(exps)
    if len(exps) != len(variables):
        raise ContextError(f"exponent tuple {exps} does not match context {variables}")
    return exps


def _init(self, variables, terms, packed):
    object.__setattr__(self, "vars", variables)
    object.__setattr__(self, "_terms", terms)
    object.__setattr__(self, "_packed", packed)
    object.__setattr__(self, "_values", None)
    return self


def _width(k, m):
    """The narrowest slot width of the ladder whose half-range holds |e_i| <= m.

    The ladder is floor(30/k), floor(60/k) bits, then doubling; widths under
    2 bits are skipped, so that a slot's bit 0 is its exponent's parity.  One
    variable needs no slot: its key is the exponent (width 0), and so does the
    empty context, whose one monomial has key 0.
    """
    if k < 2:
        return 0
    w = 30 // k
    if w < 2 or m >> (w - 1):
        w = max(60 // k, 2)
        while m >> (w - 1):
            w *= 2
    return w


def _width_of(k, *boxes):
    """The ladder width whose half-range holds every given box (None is empty)."""
    if k < 2:
        return 0
    m = 0
    for box in boxes:
        if box is not None:
            m = max((m, *box[1], *map(neg, box[0])))
    return _width(k, m)


def _key(exps, w):
    """The key of one exponent vector at width w."""
    key = 0
    for e in reversed(exps):
        key = (key << w) + e
    return key


def _offset(k, w):
    """Half a slot in every slot but the top one: adding it makes those slots'
    digits e_i + 2^(w-1), which lie in [0, 2^w) and can be read off bit by bit."""
    return sum(1 << (w * i + w - 1) for i in range(k - 1))


def _decode(keys, w, k):
    """The tuple-keyed terms of a key dict at width w."""
    if k < 2:
        return {(e,)[:k]: c for e, c in keys.items()}
    half, mask, offset = 1 << (w - 1), (1 << w) - 1, _offset(k, w)
    lows = range(0, w * (k - 1), w)
    top = w * (k - 1)
    out = {}
    for key, c in keys.items():
        x = key + offset
        out[tuple([(x >> s & mask) - half for s in lows] + [x >> top])] = c
    return out


def _box(p):
    """p's exponent box ((lo, ...), (hi, ...)), None for the zero polynomial."""
    return _own(p)[2]


def _keys_at(p, w):
    """p's terms keyed at width w: its own keys, or re-packed ones."""
    keys, own, _ = _own(p)
    if own == w:
        return keys
    terms = p._terms if p._terms is not None else _decode(keys, own, len(p.vars))
    return {_key(e, w): c for e, c in terms.items()}


def _own(p):
    """p's packed form (keys, width, box).  A polynomial built from tuples is
    packed once, at the width of its exact box, so that threads that pack it
    at once store equal forms."""
    packed = p._packed
    if packed is None:
        terms = p._terms
        box = None
        if terms:
            slots = list(zip(*terms))
            box = (tuple(map(min, slots)), tuple(map(max, slots)))
        w = _width_of(len(p.vars), box)
        packed = ({_key(e, w): c for e, c in terms.items()}, w, box)
        object.__setattr__(p, "_packed", packed)
    return packed


def poly_text(p: SparsePoly) -> str:
    """Canonical text rendering: ascending graded-lex, ASCII exponents.

    Examples: "1 - 4*q^2 + 6*q^4", "1 + t^4 + t^8", "0".
    """
    return _terms_text(p.vars, p.sorted_terms())


def _terms_text(variables, terms) -> str:
    """poly_text of (exponents, coefficient) pairs in their order; a rational
    coefficient prints as 3/2."""
    chunks = []
    for e, c in terms:
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(variables, e) if k != 0
        )
        neg = c < 0
        a = -c if neg else c
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks) or "0"


def adams_poly(p: SparsePoly, r: int, flavor: Flavor) -> SparsePoly:
    """Adams substitution on a bare polynomial.

    Plain variables map as v -> v^r, twisted ones as v -> -(-v)^r, which on a
    monomial multiplies the coefficient by (-1)^((r+1) * exponent) per twisted
    variable.  r = 1 is the identity.
    """
    if r < 1:
        raise ValueError("Adams operations want r >= 1")
    if p.vars != flavor.variables:
        raise ContextError(f"flavor {flavor.name} does not match context {p.vars}")
    if r == 1:
        return p
    box = _box(p)
    if box is None:
        return SparsePoly.zero(p.vars)
    box = (tuple(v * r for v in box[0]), tuple(v * r for v in box[1]))
    w = _width_of(len(p.vars), box)  # r >= 1, so it holds p's box too
    keys = _keys_at(p, w)
    # bit w*i of key + offset is the parity of e_i (see _offset)
    odd = 0 if r & 1 else sum(1 << (w * i) for i, v in enumerate(p.vars) if v in flavor.twisted)
    if odd:
        offset = _offset(len(p.vars), w)
        out = {e * r: -c if ((e + offset) & odd).bit_count() & 1 else c for e, c in keys.items()}
    else:
        out = {e * r: c for e, c in keys.items()}
    return SparsePoly._from_keys(p.vars, out, w, box)


# -- exact division ---------------------------------------------------------


def divide_exact(num: SparsePoly, div: SparsePoly) -> SparsePoly:
    """Exact quotient num / div for div = 1 + c*x^d, c = +-1 and d >= 0 (a
    BinomialFactor), raising NotDivisible when none exists and a ValueError
    that names any other divisor."""
    num._check_context(div)
    zero = (0,) * len(div.vars)
    rest = dict(div.terms)
    if len(rest) == 2 and rest.pop(zero, None) == 1:
        ((d, c),) = rest.items()
        if c in (1, -1) and min(d) >= 0:
            q = _divide_by_factor(num, BinomialFactor(div.vars, d, c))
            if q is None:
                raise NotDivisible(f"({poly_text(div)}) does not divide ({poly_text(num)})")
            return q
    raise ValueError(f"divisor {poly_text(div)} is not a binomial 1 +- x^d with d >= 0")


def _divide_by_factor(num: SparsePoly, f: BinomialFactor):
    """Exact quotient num / f as SparsePoly, or None.  Handles Laurent inputs.

    Most trial divisions fail, so f = 1 + c*x^d first gets the pre-test: the
    numerator's carried value at the factor's test point (_jet).  A multiple
    Q*(1 + c*x^d) has value 0 there: the long division makes Q's
    coefficients integer combinations of the numerator's, so Q has a value
    too.  A nonzero value therefore proves the division fails; a zero or
    unknown value (none carried, or no test point) proves nothing, and the long division decides every success.

    The division runs on keys, in the key order, by 1 + c*z^D, D the key of
    d.  f's box is [0, d], so an exact quotient lies in box_Q = [lo, hi - d],
    with [lo, hi] num's box.  A run of quotient terms u, u + d, ..., u + k*d
    inside box_Q has k*d_i <= span_i - d_i wherever d_i != 0, so k is at most
    ``cap``; a longer run, or a negative span_i - d_i, proves failure.  Every
    vector the walk compares or looks up is then a numerator exponent, one
    step d past one, or a run's term, at most span_i + d_i below lo_i or
    span_i above hi_i.  So the walk works in the width that holds
    [lo - span - d, hi + span]: there every key it meets is the key of
    exactly that vector, the key order is a monomial order, and the walk is
    the long division of num by f.  A quotient found at a wider width than
    its own box needs is re-keyed at that box's width.
    """
    if num.is_zero():
        return num
    pt = f._point
    if pt is not None and _jet(num, pt)[0]:
        return None
    lo, hi = _box(num)
    d = f.exps
    span = tuple(map(sub, hi, lo))
    room = tuple(map(sub, span, d))
    if min(room) < 0:
        return None
    cap = min(r // v for r, v in zip(room, d) if v)
    w = _width(len(lo), max(max(s + v - a, b + s) for a, b, s, v in zip(lo, hi, span, d)))
    out = _divide_two_term(dict(_keys_at(num, w)), _key(d, w), f.c, cap)
    if out is None:
        return None
    box = (lo, tuple(map(sub, hi, d)))
    own = _width_of(len(lo), box)
    if own != w:  # re-keyed at its own box's width, so later kernels need not
        out = {_key(e, own): c for e, c in _decode(out, w, len(lo)).items()}
    return SparsePoly._from_keys(num.vars, out, own, box)


def _divide_two_term(rem, d, c, cap):
    """Quotient of a key dict by 1 + c*z^d (d > 0, c = +-1), or None; rem is consumed.

    The numerator's keys are walked upward: each key p with a nonzero
    remainder sets Q[p] = rem[p] and subtracts c*Q[p] from rem[p + d].
    A key above the top key minus d can hold no quotient term, so a nonzero
    remainder there is left over, and the division fails.  When p + d is no
    numerator key, its remainder is final and nonzero: it must be a quotient
    term, and so must the keys of the run p + 2d, ... up to the next numerator
    key, which the walk fills at once.  A run may take at most ``cap`` steps,
    and may not pass the top key minus d.  On a line {p + k*d} the quotient's
    top term sits d below the numerator's, so a run may not pass the top key
    of p's residue class mod d minus d either: that is the line bound.  Its map from each class to its
    top costs a pass over the keys, so it is built only once the runs have
    filled as many terms as there are keys, which at most doubles the work.
    Exact divisions seldom get there (no walk of Hqt n <= 3 at g = 3 does, nor
    of Hqt n = 7 or Hxy n = 5 at g = 2), and building the map on every walk
    made the hqt-sweep and hxy-point passes 10-13% slower.
    """
    keys = sorted(rem)
    stop = keys[-1] - d
    step = -c  # Q[t + d] = step * Q[t] on a run
    tops = None
    budget = len(keys)  # run terms to fill before the line bound pays for itself
    get = rem.get
    out = {}
    for p in keys:
        v = rem[p]
        if not v:
            continue
        if p > stop:
            return None
        out[p] = v
        t = p + d
        u = get(t)
        if u is None:
            limit = min(p + cap * d, stop if tops is None else tops[p % d] - d)
            while u is None:
                if t > limit:
                    return None
                v *= step
                out[t] = v
                t += d
                u = get(t)
                budget -= 1
                if not budget:
                    tops = dict(zip(map(d.__rmod__, keys), keys))
                    limit = min(limit, tops[p % d] - d)
        rem[t] = u - c * v
    return out


# The pre-test's modulus, a Mersenne prime: 2 has order 61 modulo it, so
# 2^k is 2^(k % 61) and a power of 2 is a bit shift.  Exponents that meet
# modulo 61 can only hide a failed division from the pre-test, never fake one.
_PRIME = (1 << 61) - 1


@cache
def _test_point(d, c):
    """The pre-test's point for 1 + c*x^d (c = +-1), or None where it has none.

    The point is x_i = 2^(w_i) modulo _PRIME, with x_s negated for c = 1 (s
    the first variable with d_s odd), returned as (w, s, j); s is None for
    c = -1, and j, the first variable with d_j != 0, is the coordinate of
    the jets' derivative D = x_j*d/dx_j.  The weights w_i = 3^i*d_j for
    i != j and w_j = -sum_(i != j) 3^i*d_i give w.d = 0, so x^d = -c and the
    divisor vanishes at x; there D(1 + c*x^d) = -d_j != 0.  There is no point
    for 1 + x^d with every d_i even: x^d is a square and -1 is none modulo
    _PRIME.
    """
    s = None
    if c == 1:
        s = next((i for i, v in enumerate(d) if v & 1), None)
        if s is None:
            return None
    j = next(i for i, v in enumerate(d) if v)
    w = [3**i * d[j] for i in range(len(d))]
    w[j] = -sum(3**i * v for i, v in enumerate(d) if i != j)
    return tuple(w), s, j


_UNKNOWN = (None, None)


def _jet(poly, pt):
    """poly's jet (phi(poly), phi(D*poly)) at the test point pt, or _UNKNOWN.

    The memo holds the jets carried to poly (a derivative may be None).  A
    polynomial of at most two terms, a factor or a monomial, gets its closed
    form, memoized; a larger one's jet is never computed from its terms.
    """
    values = poly._values or {}
    if pt in values or len(poly) > 2:
        return values.get(pt, _UNKNOWN)
    jet = _terms_jet(poly, pt)
    object.__setattr__(poly, "_values", {**values, pt: jet})
    return jet


def _terms_jet(poly, pt):
    """poly's jet at pt by a pass over its terms."""
    jet = (0, 0)
    for e, c in poly.terms.items():
        m0, m1 = _monomial_jet(e, pt)
        jet = (jet[0] + c * m0) % _PRIME, (jet[1] + c * m1) % _PRIME
    return jet


def _monomial_jet(exps, pt):
    """The jet of x^exps at pt: (m, exps_j*m) with m its value."""
    w, s, j = pt
    m = 1 << (sum(map(mul, w, exps)) % 61)
    if s is not None and exps[s] & 1:
        m = -m
    return m, exps[j] * m


def _jet_mul(a, b):
    """The jet of a product, (a0*b0, a0*b1 + a1*b0).

    A part may be unknown, None (a jet with an unknown value has an unknown
    derivative).  An unknown part times 0 is 0, not unknown: a lift by a
    cofactor that vanishes at the point keeps its jet exact there.
    """
    (a0, a1), (b0, b1) = a, b
    if a1 is not None and b1 is not None:
        return a0 * b0 % _PRIME, (a0 * b1 + a1 * b0) % _PRIME
    deriv = _times(a0, b1), _times(a1, b0)
    return _times(a0, b0), None if None in deriv else sum(deriv) % _PRIME


def _times(x, y):
    """x*y modulo _PRIME where x or y may be None: 0 where the other is 0."""
    if x is not None and y is not None:
        return x * y % _PRIME
    known = y if x is None else x
    return None if known is None or known % _PRIME else 0


def _jet_pow(jet, k):
    """The k-th power (k >= 1) of a known jet: (b0^k, k*b0^(k-1)*b1)."""
    b0, b1 = jet
    power = pow(b0, k - 1, _PRIME)
    return power * b0 % _PRIME, k * power * b1 % _PRIME


def _carry(src, out, unit):
    """Give out = src*u the jets of src times unit(pt), the jet of u.

    u is a scalar or a monomial, and a jet is carried wherever src's value
    is known: evaluation at a test point to first order is a ring
    homomorphism, so no pass over out is needed.  Returns out.
    """
    if src._values:
        _set_values(out, {
            pt: _jet_mul(jet, unit(pt))
            for pt, jet in src._values.items() if jet[0] is not None
        })
    return out


def _set_values(poly, values):
    """Store carried jets on a polynomial that has none yet."""
    if values:
        object.__setattr__(poly, "_values", values)


# -- binomial factors ----------------------------------------------------------


class BinomialFactor:
    """The denominator factor 1 + c*x^exps, with c = +-1 and exps >= 0 nonzero.

    The fields are named like the (c, exps, power) triples of
    ``Flavor.cell_factors``; any other c or exps raises ValueError.
    Immutable, equal and hashed by its three fields; the hash is computed once.
    """

    def __init__(self, variables, exps, c):
        exps = tuple(exps)
        if type(c) is not int or c not in (1, -1) or len(exps) != len(variables) \
                or not any(exps) or min(exps) < 0:
            raise ValueError(
                f"1 + {c}*x^{exps} in {tuple(variables)} is no binomial factor:"
                " it wants c = +-1 and a nonzero exponent vector with no negative entry"
            )
        d = self.__dict__  # past the __setattr__ that refuses changes
        d["variables"], d["exps"], d["c"] = variables, exps, c
        d["_fields"] = fields = (variables, exps, c)
        d["_hash"] = hash(fields)

    def __setattr__(self, name, value):
        raise AttributeError("BinomialFactor is immutable")

    def __delattr__(self, name):
        raise AttributeError("BinomialFactor is immutable")

    def __eq__(self, other):
        if type(other) is not BinomialFactor:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt, so a copy hashes in its own process
        return BinomialFactor, self._fields

    def as_poly(self) -> SparsePoly:
        return self._poly

    @cached_property
    def _poly(self):
        # one polynomial per factor, so its memo keeps the factor's values
        return SparsePoly._raw(self.variables, {(0,) * len(self.exps): 1, self.exps: self.c})

    @cached_property
    def _line(self):
        """(d, k) for 1 - x^(k*d) with d primitive, the product of Phi_j(x^d)
        over j | k; a factor 1 + x^exps is its own line, (self, 1)."""
        if self.c == 1:
            return self, 1
        k = gcd(*self.exps)
        return tuple(e // k for e in self.exps), k

    @cached_property
    def _point(self):
        """The pre-test's point for this factor, or None when it has none."""
        return _test_point(self.exps, self.c)

    def sort_key(self):
        return (_gl_key(self.exps), self.c)

    def __repr__(self):
        return f"BinomialFactor({poly_text(self.as_poly())})"


# -- fractions with factored binomial denominators ----------------------------


class FactoredFraction:
    """numerator / product of binomial factors, reduced by construction.

    The denominator is a multiset {BinomialFactor: multiplicity}.  Every
    fraction is reduced: no denominator factor exactly divides the numerator
    (the constructor cancels; _reduced builds what is reduced already), but
    for a product that _unreduced_product hands to a sum, which reduces it.
    The canonical zero has a zero numerator and an empty denominator; else
    the constructor drops a multiplicity 0 and refuses one below 0 (ValueError).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den=None):
        if den is None or num.is_zero():
            den = {}
        elif den:
            num, den = _cancel(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", dict(den))

    @classmethod
    def _reduced(cls, num: SparsePoly, den):
        """Build without cancelling: num / den must be reduced (or a summand
        that only frac_sum reads), with den empty if num is 0."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", dict(den))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FactoredFraction is immutable")

    @property
    def vars(self):
        return self.num.vars

    @classmethod
    def from_poly(cls, p: SparsePoly):
        return cls._reduced(p, {})

    @classmethod
    def one(cls, variables):
        return cls._reduced(SparsePoly.one(variables), {})

    @classmethod
    def zero(cls, variables):
        return cls._reduced(SparsePoly.zero(variables), {})

    def is_zero(self):
        return self.num.is_zero()

    def denominator_factors(self):
        """Denominator as a sorted ((factor, multiplicity), ...) tuple."""
        return tuple(
            sorted(self.den.items(), key=lambda fm: fm[0].sort_key())
        )

    # -- arithmetic -------------------------------------------------------

    def _operand(self, other):
        """An int, SparsePoly or fraction in self's context, else NotImplemented."""
        if isinstance(other, int):
            other = SparsePoly.constant(self.vars, other)
        if isinstance(other, SparsePoly):
            other = FactoredFraction.from_poly(other)
        elif not isinstance(other, FactoredFraction):
            return NotImplemented
        self.num._check_context(other.num)
        return other

    def __add__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else frac_sum([self, other], self.vars)

    __radd__ = __add__

    # negation, a nonzero scale and a monomial shift keep a fraction reduced

    def __neg__(self):
        return FactoredFraction._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        other = self._operand(other)
        if other is NotImplemented:
            return other
        out = _unreduced_product(self, other)
        return FactoredFraction(out.num, out.den)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return FactoredFraction.zero(self.vars)
        return FactoredFraction._reduced(self.num.scale(c), self.den)

    def shift(self, exps):
        return FactoredFraction._reduced(self.num.shift(exps), self.den)

    def __eq__(self, other):
        """Value equality (cross-multiplied over a common denominator)."""
        other = self._operand(other)
        if other is NotImplemented:
            return other
        pair = [self, other]
        common, cofactors = _common_denominator(pair)
        a, b = _lift_numerators(pair, cofactors, common)
        return a == b

    def __hash__(self):
        raise TypeError("FactoredFraction is not hashable")

    # -- conversions ------------------------------------------------------

    def as_polynomial(self) -> SparsePoly:
        """The numerator when the denominator is empty, else NotPolynomial.

        A fraction is reduced, so no denominator factor divides the numerator.
        """
        if not self.den:
            return self.num
        fp = self.denominator_factors()[0][0].as_poly()
        raise NotPolynomial(
            f"denominator factor ({poly_text(fp)}) does not divide the numerator",
            factor=fp,
        )

    def __repr__(self):
        den = " * ".join(
            f"({poly_text(f.as_poly())})" + (f"^{m}" if m > 1 else "")
            for f, m in self.denominator_factors()
        )
        if den:
            return f"FactoredFraction(({poly_text(self.num)}) / {den})"
        return f"FactoredFraction({poly_text(self.num)})"


def _binomial_power(variables, e, c, k):
    """(1 + c*x^e)^k for k >= 1, term by term: C(k, j)*c^j at the key j*D, D
    the key of e.  Its box is (min(e_i, 0)*k, max(e_i, 0)*k), so a negative
    exponent gets a wide enough slot too."""
    e, c = _exponents(e, variables), index(c)
    box = (tuple(min(v, 0) * k for v in e), tuple(max(v, 0) * k for v in e))
    w = _width_of(len(e), box)
    d = _key(e, w)
    return SparsePoly._from_keys(variables, {j * d: comb(k, j) * c**j for j in range(k + 1)}, w, box)


def binomial_product(variables, factors) -> FactoredFraction:
    """The product of (1 + c*x^e)^k over the (c, e, k) triples of factors.

    Built once, so cancelled once: a power k > 0 multiplies the numerator by
    the binomial's power expanded term by term (_binomial_power), a power
    k < 0 puts the BinomialFactor (c = +-1, e >= 0) into the denominator, a
    factor 1 (c = 0 or k = 0) is skipped and e = 0 raises ValueError.  The
    numerator gets its pre-test jets at the denominator's points from its
    binomial powers, each binomial's (1 + c*m0, c*m1) from its monomial's, so
    no pass reads it.
    """
    num = SparsePoly.one(variables)
    den = {}
    powers = []
    for c, e, k in factors:
        if not (c and k):
            continue
        if not any(e):
            raise ValueError(f"factor 1 + {c}*x^{tuple(e)} is the constant {1 + c}, not a binomial")
        if k > 0:
            num = num * _binomial_power(variables, e, c, k)
            powers.append((c, e, k))
        else:
            f = BinomialFactor(variables, e, c)
            den[f] = den.get(f, 0) - k
    values = {}
    for f in den:
        pt = f._point
        if pt is not None:
            jet = (1, 0)
            for c, e, k in powers:
                m0, m1 = _monomial_jet(e, pt)
                jet = _jet_mul(jet, _jet_pow((1 + c * m0, c * m1), k))
            values[pt] = jet
    _set_values(num, values)
    return FactoredFraction(num, den)


def _product(a, b, den):
    """a*b, with its jet at the test point of each factor of den.

    The Leibniz rule gives the product's jet from its operands' (_jet): a
    carried jet, or a factor's or monomial's closed form.  Where an operand's
    value is unknown, so is the product's, but where the other's is 0
    (_jet_mul).
    """
    out = a * b
    if out:
        values = {}
        for f in den:
            pt = f._point
            if pt is not None:
                jet = _jet_mul(_jet(a, pt), _jet(b, pt))
                if jet[0] is not None:
                    values[pt] = jet
        _set_values(out, values)
    return out


def _unreduced_product(a, b):
    """The fraction a*b, not cancelled: only a sum (frac_sum) may take it,
    whose total cancels.  Its numerator carries jets (_product)."""
    den = dict(a.den)
    for f, m in b.den.items():
        den[f] = den.get(f, 0) + m
    return FactoredFraction._reduced(_product(a.num, b.num, den), den)


def _cancel(num, den):
    """Divide out every denominator factor that exactly divides num.

    Each trial division is by the BinomialFactor itself (_divide_by_factor),
    whose direction and test point are cached on it.  Afterwards no factor
    left in the denominator divides the numerator: a factor that failed still
    fails after later divisions, because each later quotient divides the
    numerator it came from.  Each quotient carries its jets (_quotient_jets),
    so a second test of the same factor reads a carried value.  A test whose
    numerator has no carried value (a third test of one factor, whose
    quotient's derivative was unknown, or a numerator that never had one)
    goes straight to the long division.
    """
    out = {}
    for f, m in sorted(den.items(), key=lambda fm: fm[0].sort_key()):
        if m < 0:
            raise ValueError(f"denominator factor {f!r} has multiplicity {m} < 0")
        while m > 0:
            q = _divide_by_factor(num, f)
            if q is None:
                break
            _set_values(q, _quotient_jets(num, f.as_poly()))
            num = q
            m -= 1
        if m:
            out[f] = m
    return num, out


def _quotient_jets(num, fp):
    """The jets of q = num / fp wherever num's value is known.

    From num = q*fp: where phi(fp) != 0, the quotient rule
    q0 = n0 / f0 and q1 = (n1 - q0*f1) / f0; where phi(fp) = 0, such as on
    fp's own zero set, n1 = q0*f1 gives q0 = n1 / f1 when f1 != 0, and q1
    stays unknown.
    """
    known = {}
    for pt, (n0, n1) in (num._values or {}).items():
        if n0 is None:
            continue
        f0, f1 = _jet(fp, pt)
        if f0:
            inv = pow(f0, -1, _PRIME)
            q0 = n0 * inv % _PRIME
            known[pt] = q0, None if n1 is None else (n1 - q0 * f1) * inv % _PRIME
        elif n1 is not None and f1:
            known[pt] = n1 * pow(f1, -1, _PRIME) % _PRIME, None
    return known


def _common_denominator(fracs):
    """A sub-multiset of the summands' multiset maximum that still holds the
    lcm of their denominators on each line (see frac_sum), and each summand's
    cofactor common / den_i from the matches kept on each line (_match): its
    binomials {factor: count} and geometric sums [(e, r)], sum_(i < r) x^(i*e).

    A copy of a factor is dropped, smallest k first, while every summand
    matches into the line and the lifts cost no more rows of term products:
    one per binomial and r - 1 per geometric sum of r terms, each as long as
    the summand's numerator (timed against a binomial's row: 1.0-2.6 at r = 3,
    2.4-6.5 at r = 6).  Each dropped copy is a long division saved.
    """
    common = {}
    for fr in fracs:
        for f, m in fr.den.items():
            if common.get(f, 0) < m:
                common[f] = m
    index = {f._line: f for f in common}
    sizes = [len(fr.num) for fr in fracs]
    held = [_lines(fr.den) for fr in fracs]
    kept, cofactors = {}, [({}, []) for _ in fracs]
    for d, line in _lines(common).items():
        dens = [h.get(d, {}) for h in held]
        # a match is one-to-one, so the line keeps as many factors as any summand holds
        spare = sum(line.values()) - max(sum(den.values()) for den in dens)
        cost, matches = _lift_rows(dens, sizes, line)
        for k in sorted(line):
            while line[k] and spare:
                line[k] -= 1
                new = _lift_rows(dens, sizes, line)
                if new is None or new[0] > cost:
                    line[k] += 1
                    break
                (cost, matches), spare = new, spare - 1
        kept.update((index[d, k], c) for k, c in line.items() if c)
        for (binomials, runs), (free, more) in zip(cofactors, matches):
            binomials.update((index[d, k], c) for k, c in free.items() if c)
            runs += [(tuple(k * v for v in d), r) for k, r in more]
    return kept, cofactors


def _lines(den):
    """den's multiplicities by line, {d: {k: m}} (BinomialFactor._line)."""
    out = {}
    for f, m in den.items():
        d, k = f._line
        out.setdefault(d, {})[k] = m
    return out


def _match(held, line):
    """The cofactor line / held on one line, {k: m} each: its binomials
    {k: count} and geometric sums [(k, r)], or None where held does not match.

    A held 1 - x^(k*d) takes a copy of itself, or else, the largest k first,
    the free 1 - x^(b*d) with the least multiple b of k: their quotient is
    sum_(i < r) x^(i*k*d) with r = b/k.
    """
    free = dict(line)
    rest = []
    for k, m in held.items():
        c = free.get(k, 0)
        free[k] = max(c - m, 0)
        rest += [k] * (m - c)
    runs = []
    for k in sorted(rest, reverse=True):
        fits = [b for b, c in free.items() if c and not b % k]
        if not fits:
            return None
        b = min(fits)
        free[b] -= 1
        runs.append((k, b // k))
    return free, runs


def _lift_rows(dens, sizes, line):
    """The rows of term products that lift numerators of these sizes over dens
    onto line, with each one's match (_match), or None where one does not
    match (_common_denominator)."""
    matches = [_match(den, line) for den in dens]
    if None not in matches:
        return sum(n * (sum(free.values()) + sum(r - 1 for _, r in runs))
                   for n, (free, runs) in zip(sizes, matches)), matches


def _lift_numerators(fracs, cofactors, common):
    """Each summand's numerator times its cofactor (_common_denominator), with
    its jets at the test points of common's factors: each lift is a _product,
    and a geometric sum gets its closed form from its terms (_terms_jet)."""
    points = [f._point for f in common if f._point is not None]
    out = []
    for fr, (binomials, runs) in zip(fracs, cofactors):
        num = fr.num
        if num:
            for g, c in binomials.items():
                for _ in range(c):
                    num = _product(num, g.as_poly(), common)
            for e, r in runs:
                run = SparsePoly._raw(num.vars, {tuple(i * v for v in e): 1 for i in range(r)})
                _set_values(run, {pt: _terms_jet(run, pt) for pt in points})
                num = _product(num, run, common)
        out.append(num)
    return out


def frac_sum(fracs, variables=None) -> FactoredFraction:
    """Sum fractions over the lcm of their denominators, line by line.

    1 - x^(k*d), d primitive, is the product of the cyclotomic Phi_j(x^d) over
    j | k, so 1 - x^d divides 1 - x^(2d): a multiset maximum of binomials
    overstates the lcm, and a sum over it lifts a summand by a factor that the
    total then divides back out.  Each summand is lifted by its cofactor
    common / den_i (_common_denominator), built in closed form.  A factor
    1 + x^D is its own line.

    Cancellation runs once, on the total, so the summands need not be reduced
    and a long summation (a series recursion) does not re-cancel at every
    step.  The partition sum calls this pairwise, as a balanced tree, so that
    each node lifts reduced children.  The lifts carry their jets
    (_lift_numerators), and the total's pre-test value at a point is the sum
    of theirs where every one is known.
    """
    fracs = list(fracs)
    if not fracs:
        if variables is None:
            raise ValueError("empty sum needs an explicit variable context")
        return FactoredFraction.zero(variables)
    if len(fracs) == 1:
        return fracs[0]
    variables = fracs[0].vars
    for fr in fracs[1:]:
        if fr.vars != variables:
            raise ContextError(f"context mismatch: {variables} vs {fr.vars}")
    common, cofactors = _common_denominator(fracs)
    lifts = _lift_numerators(fracs, cofactors, common)
    total = SparsePoly.zero(variables)
    for num in lifts:
        total = total + num
    if total:
        values = {}
        for f in common:
            pt = f._point
            if pt is not None:
                value, deriv = zip(*[_jet(num, pt) for num in lifts])
                if None not in value:
                    deriv = None if None in deriv else sum(deriv) % _PRIME
                    values[pt] = sum(value) % _PRIME, deriv
        _set_values(total, values)
    return FactoredFraction(total, common)


def adams(fr: FactoredFraction, r: int, flavor: Flavor) -> FactoredFraction:
    """Adams substitution on a factored fraction (exact, denominator-safe).

    The arguments are checked first, by adams_poly on the numerator.  A
    denominator factor 1 + c*x^e has the image 1 +- x^(r*e), its two terms
    substituted as in adams_poly: a BinomialFactor again, which goes into the
    denominator as it is.  Distinct factors have distinct images.

    A reduced fraction has a reduced image, built with no cancel: x_i -> +-x_i^r
    is an injective ring map phi of Q[x^+-1] onto the ring fixed by x_i ->
    zeta_i*x_i, zeta_i^r = 1.  If phi(f) divides phi(N), the quotient is fixed
    too, so it is phi(Q) and N = f*Q: an image factor divides the image's
    numerator only if its source factor divides N.
    """
    num = adams_poly(fr.num, r, flavor)
    if r == 1:
        return fr
    flips = [not r & 1 and v in flavor.twisted for v in fr.vars]
    den = {}
    for f, m in fr.den.items():
        c = -f.c if sum(k for k, s in zip(f.exps, flips) if s) & 1 else f.c
        den[BinomialFactor(fr.vars, tuple(r * k for k in f.exps), c)] = m
    return FactoredFraction._reduced(num, den)
