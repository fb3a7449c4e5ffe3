"""Exact sparse Laurent-polynomial arithmetic over the rationals.

A polynomial in k variables maps exponent vectors (one signed integer per
variable of a fixed variable context) to nonzero rational coefficients.  The
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
input is refused.

``SparsePoly.terms`` is the public view, dict[tuple[int, ...], int |
Fraction]; it is decoded from the packed form on first use and memoized.  A
polynomial built from exponent tuples is packed only when a kernel first
needs it, so reading a cached document, the checks and the documents never
pack.  Coefficients are exact; integer-valued coefficients are stored as int
(a fast path: Python's numeric tower makes int and Fraction interoperable),
anything else as Fraction; only a kernel that a Fraction can enter scans its
result for them (_ints).  A cold layer pass builds and scans none: its
denominator factors are normalized in ints (_split), and its scale by 1/n
divides in ints.  The zero polynomial has no terms; negative exponents are
allowed everywhere (Laurent support is required by the hook normalizations).

On top of the polynomials sits FactoredFraction: a numerator polynomial
divided by a multiset of normalized two-term factors ("binomials" such as
1 - q^3*t^4).  Every denominator produced by the generating functions in this
package is a product of such factors, so exact division by binomials replaces
general multivariate gcd computation, and a BinomialFactor is the only divisor:
``divide_exact`` takes a two-term divisor and divides by its normalized
factor.  Most trial divisions fail, so ``_divide_by_factor`` gives a factor
1 + c*x^d with c = +-1 a pre-test that can only reject: the numerator's
value modulo the prime 2^61 - 1 at a fixed point where x^d = -c, i.e. on the
binomial's zero set.  A multiple of the binomial vanishes there (its quotient
has integer coefficients too), so a nonzero value proves the division fails.
A zero or unknown value gives no verdict, and the exact division decides: a
one-dimensional long division of the keys by c0 + c1*z^D, with D the key of
the binomial's direction, walked upward.  A run of quotient terms that meets
no numerator term is bounded by the top key of its residue class mod D, the
line bound.

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

The monomial order used for canonical output and for a binomial factor's
leading term is graded lexicographic, ascending, with the variable order of
the context; the long division walks the key order instead.  All values are
immutable after construction (a polynomial's packed form, its decoded view
and its memo of pre-test jets only cache what its terms determine); every
operation is a pure function, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import add, mul, neg, sub

from .errors import (
    ContextError,
    NegativeExponentAtZero,
    NotDivisible,
    NotPolynomial,
)


def _as_coeff(c):
    """Normalize a rational to int when integral (fast-path invariant)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _gl_key(exps):
    """Graded-lexicographic sort key."""
    return (sum(exps), exps)


@dataclass(frozen=True)
class Flavor:
    """One generating function as data: its variables, hook term and normalization.

    ``twisted`` lists the variables v substituted as v -> -(-v)^r by the Adams
    operations; the others substitute plainly as v -> v^r.

    Every factor is a triple (c, exps, power) meaning (1 + c*x^exps)^power; a
    negative power divides.  The term of a partition at genus g is

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
    packed form, ``_packed`` = (keys, width, box, frac): {key: coefficient} at
    that slot width, the exponent box ((lo, ...), (hi, ...)), None when it has
    no terms, and whether a coefficient is a Fraction.  ``terms``
    decodes the keys once.  ``_values`` is a private memo of the pre-test's
    jets, {point: (value, derivative)}, or None before the first jet (see
    _jet).
    """

    __slots__ = ("vars", "_terms", "_packed", "_values")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean = {}
        if terms:
            nvars = len(variables)
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ContextError(
                        f"exponent tuple {exps} does not match context {variables}"
                    )
                c = _as_coeff(c)
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
    def _from_keys(cls, variables, keys, width, box, frac):
        """Internal constructor for a kernel's result: clean keys at width, in box."""
        return _init(object.__new__(cls), variables, None, (keys, width, box if keys else None, frac))

    @classmethod
    def zero(cls, variables):
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        c = _as_coeff(c)
        if not c:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): c})

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
        variables = tuple(variables)
        c = _as_coeff(c)
        if not c:
            return cls._raw(variables, {})
        return cls._raw(variables, {tuple(exps): c})

    # -- queries ----------------------------------------------------------

    @property
    def terms(self):
        """The terms as {exponent tuple: coefficient}, decoded once from the keys."""
        terms = self._terms
        if terms is None:
            keys, w, _, _ = self._packed
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
        return self.terms.get(tuple(exps), 0)

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
        """Componentwise minimum exponent vector over the support."""
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
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SparsePoly.constant(self.vars, other)
        self._check_context(other)
        _, _, ba, fa = _own(self)
        _, _, bb, fb = _own(other)
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
        return SparsePoly._from_keys(self.vars, out, w, box, (fa or fb) and _ints(out))

    __radd__ = __add__

    def __neg__(self):
        keys, w, box, frac = _own(self)
        out = SparsePoly._from_keys(self.vars, {e: -c for e, c in keys.items()}, w, box, frac)
        return _carry(self, out, lambda pt: (-1, 0))

    def __sub__(self, other):
        if not isinstance(other, (SparsePoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        self._check_context(other)
        _, _, ba, fa = _own(self)
        _, _, bb, fb = _own(other)
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
        return SparsePoly._from_keys(self.vars, out, w, box, (fa or fb) and _ints(out))

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by a rational, in ints where a Fraction's denominator divides."""
        c = _as_coeff(c)
        if not c:
            return SparsePoly.zero(self.vars)
        if c == 1:
            return self
        keys, w, box, frac = _own(self)
        if type(c) is Fraction and not frac:
            p, q = c.numerator, c.denominator
            if all(not v % q for v in keys.values()):  # stops at the first remainder
                keys = {e: v // q * p for e, v in keys.items()}
                return SparsePoly._from_keys(self.vars, keys, w, box, False)
        keys = {e: v * c for e, v in keys.items()}
        frac = (frac or type(c) is Fraction) and _ints(keys)
        out = SparsePoly._from_keys(self.vars, keys, w, box, frac)
        return _carry(self, out, lambda pt: (c, 0)) if type(c) is int else out

    def shift(self, exps):
        """Multiply by the (Laurent) monomial with the given exponents."""
        exps = tuple(exps)
        if not any(exps):
            return self
        _, _, old, frac = _own(self)
        box = old and (tuple(map(add, old[0], exps)), tuple(map(add, old[1], exps)))
        w = _width_of(len(exps), old, box)
        s = _key(exps, w)
        out = SparsePoly._from_keys(
            self.vars, {e + s: c for e, c in _keys_at(self, w).items()}, w, box, frac
        )
        return _carry(self, out, lambda pt: _monomial_jet(exps, pt))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a non-negative integer")
        if n == 0:
            return SparsePoly.one(self.vars)
        size = len(self)
        if size == 1:
            ((e, c),) = self.terms.items()
            return SparsePoly.monomial(self.vars, tuple(v * n for v in e), c**n)
        if size == 2:
            return self._binomial_power(n)
        result = SparsePoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _binomial_power(self, n):
        (ea, ca), (eb, cb) = self.terms.items()
        box = (tuple(min(x, y) * n for x, y in zip(ea, eb)),
               tuple(max(x, y) * n for x, y in zip(ea, eb)))
        w = _width_of(len(ea), box)
        a, b = _key(ea, w), _key(eb, w)
        out = {}
        coef = 1
        for k in range(n + 1):
            out[a * (n - k) + b * k] = coef * ca ** (n - k) * cb**k
            coef = coef * (n - k) // (k + 1)
        frac = Fraction in (type(ca), type(cb)) and _ints(out)
        return SparsePoly._from_keys(self.vars, out, w, box, frac)

    # -- substitution ------------------------------------------------------

    def specialize(self, assignment):
        """Substitute some variables by rational values or other variables.

        ``assignment`` maps a subset of the context's variables either to an
        exact rational value or to a variable name (which may be an existing
        variable, a shared new one, or several sources may fuse into one; fused
        exponents add).  Returns a SparsePoly in the remaining context, or a
        plain rational if no variables remain.  A nonzero int value at a
        positive exponent is multiplied in as an int; zero values, negative
        exponents and every other value go through Fraction.  Coefficients come
        out normalized either way: int when integral, else Fraction.
        """
        for v in assignment:
            if v not in self.vars:
                raise ContextError(f"cannot specialize unknown variable {v!r}")
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
            if not coeff:
                continue
            key = tuple(new_e)
            v2 = out.get(key, 0) + coeff
            if v2:
                out[key] = _as_coeff(v2)
            elif key in out:
                del out[key]
        if not index:
            return out.get((), 0)
        return SparsePoly._raw(tuple(index), out)

    def has_negative_exponents(self):
        if self._packed and self._packed[2] and min(self._packed[2][0], default=0) >= 0:
            return False  # the box holds the support (a sum's is a hull)
        return any(any(k < 0 for k in e) for e in self.terms)

    def is_integral(self):
        packed = self._packed
        return not packed[3] if packed else all(isinstance(c, int) for c in self.terms.values())

    def __repr__(self):
        return f"SparsePoly({'*'.join(self.vars) or '-'}: {poly_text(self)})"


# -- packed keys ---------------------------------------------------------------


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
    keys, own, _, _ = _own(p)
    if own == w:
        return keys
    terms = p._terms if p._terms is not None else _decode(keys, own, len(p.vars))
    return {_key(e, w): c for e, c in terms.items()}


def _own(p):
    """p's packed form (keys, width, box, frac).  A polynomial built from
    tuples is packed once, at the width of its exact box, with frac read from
    its coefficients' types, so that threads that pack it at once store equal
    forms."""
    packed = p._packed
    if packed is None:
        terms = p._terms
        box = None
        if terms:
            slots = list(zip(*terms))
            box = (tuple(map(min, slots)), tuple(map(max, slots)))
        w = _width_of(len(p.vars), box)
        frac = Fraction in map(type, terms.values())
        packed = ({_key(e, w): c for e, c in terms.items()}, w, box, frac)
        object.__setattr__(p, "_packed", packed)
    return packed


def _ints(out):
    """Store the integral Fraction values of a fresh term dict as int, in place;
    whether a Fraction is left.  Only a kernel whose operand, scale or divisor
    (c0 != +-1) can bring a Fraction in calls it: an int result is not scanned."""
    frac = False
    for e, c in out.items():
        if type(c) is Fraction:
            if c.denominator == 1:
                out[e] = c.numerator
            else:
                frac = True
    return frac


def poly_text(p: SparsePoly) -> str:
    """Canonical text rendering: ascending graded-lex, ASCII exponents.

    Examples: "1 - 4*q^2 + 6*q^4", "1 + t^4 + t^8", "0".
    """
    if p.is_zero():
        return "0"
    chunks = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(p.vars, e) if k != 0
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
    return "".join(chunks)


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
    return SparsePoly._from_keys(p.vars, out, w, box, _own(p)[3])


# -- exact division ---------------------------------------------------------


def divide_exact(num: SparsePoly, div: SparsePoly) -> SparsePoly:
    """Exact quotient num / div by a two-term div, raising NotDivisible when none exists.

    normalize_factor splits div as scale * x^shift * f with f a
    BinomialFactor (a ValueError for one term or more than two).  The scale
    and the monomial are units of the Laurent ring, so the quotient is
    num / f shifted by -shift and divided by scale.
    """
    num._check_context(div)
    if div.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f, shift, scale = normalize_factor(div)
    q = _divide_by_factor(num, f)
    if q is None:
        raise NotDivisible(f"({poly_text(div)}) does not divide ({poly_text(num)})")
    return q.shift(tuple(-k for k in shift)).scale(Fraction(1) / scale)


def _divide_by_factor(num: SparsePoly, f: BinomialFactor):
    """Exact quotient num / f as SparsePoly, or None.  Handles Laurent inputs.

    Most trial divisions fail, so a factor 1 + c1*x^d with c1 = +-1 first
    gets the pre-test: the numerator's carried value at the factor's test
    point (_jet).  A multiple Q*(1 + c1*x^d) has value 0 there: the long
    division makes Q's coefficients integer combinations of the numerator's,
    so Q has a value too.  A nonzero value therefore proves the division
    fails; a zero or unknown value (none carried, a rational numerator, or no
    test point) proves nothing, and the long division decides every success.

    The division runs on keys, in the key order, from f's term with the
    lower key: with l that term's exponent, the walk divides x^(-l)*N by
    c0 + c1*x^d, d the other term's exponent minus l.  f's box is [0, top]
    (its terms' componentwise minimum is 0), so an exact quotient lies in
    box_Q = [lo, hi - top], with [lo, hi] num's box, and each coordinate of
    d is at most top_i in size.  A run of quotient terms u, u + d, ..., u + k*d
    inside box_Q has k*|d_i| <= span_i - top_i wherever d_i != 0, so k is at
    most ``cap``; a longer run, or a negative span_i - top_i, proves failure.
    Every vector the walk compares or looks up is then a numerator exponent
    minus l, one step d past one, or a run's term, at most span_i + top_i
    below lo_i or span_i above hi_i.  So the walk works in the width that
    holds [lo - span - top, hi + span]: there every key it meets is the key of
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
    top = f._top
    span = tuple(map(sub, hi, lo))
    room = tuple(map(sub, span, top))
    if min(room) < 0:
        return None
    cap = min(r // abs(v) for r, v in zip(room, f._direction) if v)
    w = _width(len(lo), max(max(s + t - a, b + s) for a, b, s, t in zip(lo, hi, span, top)))
    keys = _keys_at(num, w)
    kl, cl, kh, ch = _key(f.low, w), f.low_coeff, _key(f.high, w), f.high_coeff
    if kl > kh:
        kl, cl, kh, ch = kh, ch, kl, cl
    rem = {e - kl: c for e, c in keys.items()} if kl else dict(keys)
    out = _divide_two_term(rem, kh - kl, cl, ch, cap)
    if out is None:
        return None
    frac = (_own(num)[3] or cl not in (1, -1)) and _ints(out)
    box = (lo, tuple(map(sub, hi, top)))
    own = _width_of(len(lo), box)
    if own != w:  # re-keyed at its own box's width, so later kernels need not
        out = {_key(e, own): c for e, c in _decode(out, w, len(lo)).items()}
    return SparsePoly._from_keys(num.vars, out, own, box, frac)


def _divide_two_term(rem, d, c0, c1, cap):
    """Quotient of a key dict by c0 + c1*z^d (d > 0), or None; rem is consumed.

    The numerator's keys are walked upward: each key p with a nonzero
    remainder sets Q[p] = rem[p] / c0 and subtracts c1*Q[p] from rem[p + d].
    A key above the top key minus d can hold no quotient term, so a nonzero
    remainder there is left over, and the division fails.  When p + d is no
    numerator key, its remainder is final and nonzero: it must be a quotient
    term, and so must the keys of the run p + 2d, ... up to the next numerator
    key, which the walk fills at once.  A run may take at most ``cap`` steps, and may not pass the top key
    minus d.  On a line {p + k*d} the quotient's top term sits d below the
    numerator's, so a run may not pass the top key of p's residue class mod d
    minus d either: that is the line bound.  Its map from each class to its
    top costs a pass over the keys, so it is built only once the runs have
    filled as many terms as there are keys, which at most doubles the work.
    Exact divisions seldom get there (no walk of Hqt n <= 3 at g = 3 does, nor
    of Hqt n = 7 or Hxy n = 5 at g = 2), and building the map on every walk
    made the hqt-sweep and hxy-point passes 10-13% slower.
    """
    keys = sorted(rem)
    stop = keys[-1] - d
    inv = None if c0 == 1 else c0 if c0 == -1 else Fraction(1, c0)
    step = -c1 if inv is None else -c1 * inv  # Q[t + d] = step * Q[t] on a run
    tops = None
    budget = len(keys)  # run terms to fill before the line bound pays for itself
    get = rem.get
    out = {}
    for p in keys:
        c = rem[p]
        if not c:
            continue
        if p > stop:
            return None
        if inv is not None:
            c *= inv
        out[p] = c
        t = p + d
        v = get(t)
        if v is None:
            limit = min(p + cap * d, stop if tops is None else tops[p % d] - d)
            while v is None:
                if t > limit:
                    return None
                c *= step
                out[t] = c
                t += d
                v = get(t)
                budget -= 1
                if not budget:
                    tops = dict(zip(map(d.__rmod__, keys), keys))
                    limit = min(limit, tops[p % d] - d)
        rem[t] = v - c1 * c
    return out


# The pre-test's modulus, a Mersenne prime: 2 has order 61 modulo it, so
# 2^k is 2^(k % 61) and a power of 2 is a bit shift.  Exponents that meet
# modulo 61 can only hide a failed division from the pre-test, never fake one.
_PRIME = (1 << 61) - 1


@cache
def _test_point(d, c1):
    """The pre-test's point for 1 + c1*x^d (c1 = +-1), or None where it has none.

    The point is x_i = 2^(w_i) modulo _PRIME, with x_s negated for c1 = 1 (s
    the first variable with d_s odd), returned as (w, s, j); s is None for
    c1 = -1, and j, the first variable with d_j != 0, is the coordinate of
    the jets' derivative D = x_j*d/dx_j.  The weights w_i = 3^i*d_j for
    i != j and w_j = -sum_(i != j) 3^i*d_i give w.d = 0, so x^d = -c1 and the
    divisor vanishes at x; there D(1 + c1*x^d) = -d_j != 0.  There is no point
    for 1 + x^d with every d_i even: x^d is a square and -1 is none modulo
    _PRIME.
    """
    s = None
    if c1 == 1:
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
    """poly's jet at pt by a pass over its terms, _UNKNOWN where one is rational."""
    jet = (0, 0)
    for e, c in poly.terms.items():
        if type(c) is not int:  # a rational coefficient has no value
            return _UNKNOWN
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


# -- normalized binomial factors ---------------------------------------------


class BinomialFactor:
    """A canonical two-term denominator factor.

    Invariants: integer coefficients with gcd 1; componentwise minimum of the
    two exponent vectors is the zero vector (monomial content stripped); the
    graded-lex smaller term has positive coefficient; not a unit monomial.
    Immutable, equal and hashed by its five fields; the hash is computed once.
    """

    def __init__(self, variables, low, low_coeff, high, high_coeff):
        d = self.__dict__  # past the __setattr__ that refuses changes
        d["variables"], d["low"], d["low_coeff"] = variables, low, low_coeff
        d["high"], d["high_coeff"] = high, high_coeff
        d["_fields"] = fields = (variables, low, low_coeff, high, high_coeff)
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
        return SparsePoly._raw(
            self.variables, {self.low: self.low_coeff, self.high: self.high_coeff}
        )

    @cached_property
    def _direction(self):
        """high - low, the step of the long division."""
        return tuple(map(sub, self.high, self.low))

    @cached_property
    def _line(self):
        """(d, k) for 1 - x^(k*d) with d primitive, the product of Phi_j(x^d)
        over j | k; a factor of any other form is its own line, (self, 1)."""
        if self.low_coeff != 1 or self.high_coeff != -1 or any(self.low):
            return self, 1
        k = gcd(*self.high)
        return tuple(e // k for e in self.high), k

    @cached_property
    def _top(self):
        """The top corner of the factor's box; its bottom corner is 0."""
        return tuple(map(max, self.low, self.high))

    @cached_property
    def _point(self):
        """The pre-test's point for this factor, or None when it has none."""
        if self.low_coeff != 1 or self.high_coeff not in (1, -1):
            return None
        return _test_point(self._direction, self.high_coeff)

    def sort_key(self):
        return (_gl_key(self.high), self.high_coeff, _gl_key(self.low), self.low_coeff)

    def __repr__(self):
        return f"BinomialFactor({poly_text(self.as_poly())})"


def normalize_factor(p: SparsePoly):
    """Split a nonzero polynomial as scale * monomial * BinomialFactor.

    Returns (factor, shift_exponents, scale) with p ==
    factor.as_poly().shift(shift_exponents).scale(scale), the scale an int
    when p's coefficients are.  Raises ValueError when p is zero, a unit
    monomial, or has more than two terms (general denominators never arise).
    """
    if p.is_zero():
        raise ValueError("zero polynomial cannot be a denominator factor")
    if len(p) == 1:
        raise ValueError(f"unit monomial factor {poly_text(p)}")
    if len(p) > 2:
        raise ValueError(f"factor {poly_text(p)} is not a binomial")
    return _split(p.vars, *p.terms.items())


def _split(variables, t0, t1):
    """normalize_factor of c0*x^e0 + c1*x^e1, (ei, ci) = ti with c0, c1 nonzero
    and e0 != e1: the one rule that builds a BinomialFactor.  Int coefficients
    give an int scale and build no Fraction."""
    (e0, c0), (e1, c1) = (t0, t1) if _gl_key(t0[0]) < _gl_key(t1[0]) else (t1, t0)
    shift = tuple(map(min, e0, e1))
    if any(shift):
        e0, e1 = tuple(map(sub, e0, shift)), tuple(map(sub, e1, shift))
    d = lcm(c0.denominator, c1.denominator)
    c0, c1 = c0.numerator * (d // c0.denominator), c1.numerator * (d // c1.denominator)
    g = gcd(c0, c1) if c0 > 0 else -gcd(c0, c1)  # the smaller term's sign
    scale = g if d == 1 else Fraction(g, d)
    return BinomialFactor(variables, e0, c0 // g, e1, c1 // g), shift, scale


def _fold_factor(num: SparsePoly, den: dict, split, power: int) -> SparsePoly:
    """Divide num / den by p^power, split = p's (factor, shift, scale): add the
    factor to den, in place, and return num with the shift and scale folded in."""
    factor, shift, scale = split
    den[factor] = den.get(factor, 0) + power
    num = num.shift(tuple(-power * k for k in shift))
    return num if scale == 1 else num.scale(Fraction(1) / scale**power)


# -- fractions with factored binomial denominators ----------------------------


class FactoredFraction:
    """numerator / product of binomial factors, reduced by construction.

    The denominator is a multiset {BinomialFactor: multiplicity}.  Every
    fraction is reduced: no denominator factor exactly divides the numerator
    (the constructor cancels; _reduced builds what is reduced already), but
    for a product that _unreduced_product hands to a sum, which reduces it.
    The canonical zero has a zero numerator and an empty denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den=None):
        if den is None:
            den = {}
        if num.is_zero():
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
        """A rational, SparsePoly or fraction in self's context, else NotImplemented."""
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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

    def _times_binomial(self, c, exps, power: int):
        """Multiply by (1 + c*x^exps)^power; a negative power divides."""
        if not _is_binomial(c, exps, power):
            return self
        one = (0,) * len(exps)
        if power > 0:
            return self * SparsePoly(self.vars, {one: 1, exps: c})**power
        den = dict(self.den)
        num = _fold_factor(self.num, den, _split(self.vars, (one, 1), (exps, c)), -power)
        return FactoredFraction(num, den)

    def equals(self, other) -> bool:
        """Value equality (cross-multiplied over a common denominator)."""
        return self == other

    def __eq__(self, other):
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


def _is_binomial(c, e, k):
    """Whether (1 + c*x^e)^k is other than 1 (c, k != 0); ValueError for e = 0."""
    if c and k and not any(e):
        raise ValueError(f"factor 1 + {c}*x^{tuple(e)} is the constant {1 + c}, not a binomial")
    return bool(c and k)


def binomial_product(variables, factors) -> FactoredFraction:
    """The product of (1 + c*x^e)^k over the (c, e, k) triples of factors.

    Built once, so cancelled once: a power k > 0 multiplies the numerator, a
    power k < 0 folds the factor (_split) into the denominator, a factor 1
    (c = 0 or k = 0) is skipped and e = 0 raises ValueError.  The numerator
    gets its pre-test jets at the denominator's points from its binomial
    powers if every c is an int, each binomial's (1 + c*m0, c*m1) from its
    monomial's, so no pass reads it; the folds' monomial unit carries them.
    """
    zero = (0,) * len(variables)
    num = SparsePoly.one(variables)
    unit = SparsePoly.one(variables)  # the monomial the folds leave
    den = {}
    powers = []
    for c, e, k in factors:
        if not _is_binomial(c, e, k):
            continue
        if k > 0:
            num = num * SparsePoly(variables, {zero: 1, e: c})**k
            powers.append((c, e, k))
        else:
            unit = _fold_factor(unit, den, _split(variables, (zero, 1), (e, c)), -k)
    values = {}
    for f in den:
        pt = f._point
        if pt is not None and all(type(c) is int for c, _, _ in powers):
            jet = (1, 0)
            for c, e, k in powers:
                m0, m1 = _monomial_jet(e, pt)
                jet = _jet_mul(jet, _jet_pow((1 + c * m0, c * m1), k))
            values[pt] = jet
    _set_values(num, values)
    ((shift, scale),) = unit.terms.items()
    return FactoredFraction(num.shift(shift).scale(scale), den)


def _product(a, b, den):
    """a*b, with its jet at the test point of each factor of den.

    The Leibniz rule gives the product's jet from its operands' (_jet): a
    carried jet, or a factor's or monomial's closed form.  Where an operand's
    value is unknown, so is the product's, but where the other's is 0
    (_jet_mul); a rational operand has no value, so its product has none.
    """
    out = a * b
    if out and a.is_integral() and b.is_integral():
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
        while m > 0:
            q = _divide_by_factor(num, f)
            if q is None:
                break
            _set_values(q, _quotient_jets(num, f.as_poly()))
            num = q
            m -= 1
        if m:
            out[f] = m
    if num.is_zero():
        return num, {}
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
    common / den_i (_common_denominator), built in closed form.  A factor of
    another form (1 + x^D, or c0 != 1) is its own line.

    Cancellation runs once, on the total, so the summands need not be reduced
    and a long summation (a series recursion) does not re-cancel at every
    step.  The partition sum calls this pairwise, as a balanced tree, so that
    each node lifts reduced children.  The lifts carry their jets
    (_lift_numerators), and the total's pre-test value at a point is the sum
    of theirs where every one is known: none where a summand is rational.
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

    A denominator factor's image is its two terms substituted as in adams_poly,
    renormalized (_split); its shift and scale go into the numerator.

    A reduced fraction has a reduced image, built with no cancel: x_i -> +-x_i^r
    is an injective ring map phi of Q[x^+-1] onto the ring fixed by x_i ->
    zeta_i*x_i, zeta_i^r = 1.  If phi(f) divides phi(N), the quotient is fixed
    too, so it is phi(Q) and N = f*Q: an image factor divides the image's
    numerator only if its source factor divides N.  The units that _fold_factor
    moves into the numerator change no divisibility.
    """
    if r == 1:
        if fr.vars != flavor.variables:
            raise ContextError(f"flavor {flavor.name} does not match {fr.vars}")
        return fr
    num = adams_poly(fr.num, r, flavor)
    den = {}
    flips = [not r & 1 and v in flavor.twisted for v in fr.vars]
    for f, m in fr.den.items():
        image = [(tuple(r * k for k in e), -c if sum(k for k, s in zip(e, flips) if s) & 1 else c)
                 for e, c in ((f.low, f.low_coeff), (f.high, f.high_coeff))]
        num = _fold_factor(num, den, _split(fr.vars, *image), m)
    return FactoredFraction._reduced(num, den)
