"""Exact sparse Laurent-polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping exponent tuples (one signed integer per
variable of a fixed variable context) to nonzero rational coefficients:

    SparsePoly.terms : dict[tuple[int, ...], int | Fraction]

Coefficients are exact; integer-valued coefficients are stored as int (a fast
path — Python's numeric tower makes int and Fraction interoperable), anything
else as Fraction.  The zero polynomial has an empty term dict.  Negative
exponents are allowed everywhere (Laurent support is required by the hook
normalizations).

On top of the polynomials sits FactoredFraction: a numerator polynomial
divided by a multiset of normalized two-term factors ("binomials" such as
1 - q^3*t^4).  Every denominator produced by the generating functions in this
package is a product of such factors, so exact division by binomials replaces
general multivariate gcd computation.  Most trial divisions fail, so a
binomial 1 + c*x^d with c = +-1 first gets a pre-test that can only reject:
an integer numerator is evaluated modulo the prime 2^61 - 1 at a fixed point
where x^d = -c, i.e. on the binomial's zero set.  A multiple of the binomial
vanishes there (its quotient has integer coefficients too), so a nonzero
value proves the division fails.  A zero value, or a numerator with a
rational coefficient, gives no verdict, and the exact division decides: a
long division whose terms are kept in buckets by one exponent that the
binomial's direction raises, walked upward, with Laurent exponents taken as
they are.

The monomial order used for canonical output, leading terms, and division is
graded lexicographic, ascending, with the variable order of the context.
All values are immutable after construction; every operation is a pure
function, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import add, mul, sub

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
    """Immutable sparse Laurent polynomial in a fixed variable context."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        if terms:
            nvars = len(self.vars)
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ContextError(
                        f"exponent tuple {exps} does not match context {self.vars}"
                    )
                c = _as_coeff(c)
                if c:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def _raw(cls, variables, terms):
        """Internal constructor for already-clean term dicts."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        return self

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

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

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
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        self._check_context(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = _as_coeff(v)
            elif e in out:
                del out[e]
        return SparsePoly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_context(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return SparsePoly.zero(self.vars)
        if len(a) > len(b):
            a, b = b, a
        zero = (0,) * len(self.vars)
        c0 = a.get(zero, 0)  # a's constant row is a copy of b, scaled unless c0 = 1
        out = dict(b) if c0 == 1 else {e: c0 * c for e, c in b.items()} if c0 else {}
        get = out.get
        for ea, ca in a.items():
            if ea == zero:
                continue
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                v = get(e, 0) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        for e, c in out.items():
            if type(c) is Fraction and c.denominator == 1:
                out[e] = c.numerator
        return SparsePoly._raw(self.vars, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _as_coeff(c)
        if not c:
            return SparsePoly.zero(self.vars)
        if c == 1:
            return self
        return SparsePoly._raw(
            self.vars, {e: _as_coeff(v * c) for e, v in self.terms.items()}
        )

    def shift(self, exps):
        """Multiply by the (Laurent) monomial with the given exponents."""
        exps = tuple(exps)
        if not any(exps):
            return self
        return SparsePoly._raw(
            self.vars,
            {tuple(map(add, e, exps)): c for e, c in self.terms.items()},
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a non-negative integer")
        if n == 0:
            return SparsePoly.one(self.vars)
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return SparsePoly.monomial(self.vars, tuple(v * n for v in e), c**n)
        if len(self.terms) == 2:
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
        out = {}
        coef = 1
        for k in range(n + 1):
            e = tuple(x * (n - k) + y * k for x, y in zip(ea, eb))
            out[e] = coef * ca ** (n - k) * cb**k
            coef = coef * (n - k) // (k + 1)
        return SparsePoly(self.vars, out)

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
        return any(any(k < 0 for k in e) for e in self.terms)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def __repr__(self):
        return f"SparsePoly({'*'.join(self.vars) or '-'}: {poly_text(self)})"


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
    twisted = [i for i, v in enumerate(p.vars) if v in flavor.twisted]
    sign_active = r % 2 == 0 and twisted
    out = {}
    for e, c in p.terms.items():
        if sign_active and sum(e[i] for i in twisted) % 2:
            c = -c
        out[tuple(k * r for k in e)] = c
    return SparsePoly._raw(p.vars, out)


# -- exact division ---------------------------------------------------------


def divide_exact(num: SparsePoly, div: SparsePoly) -> SparsePoly:
    """Exact quotient num / div, raising NotDivisible when none exists."""
    num._check_context(div)
    if div.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return num
    q = _try_divide(num, div)
    if q is None:
        raise NotDivisible(f"({poly_text(div)}) does not divide ({poly_text(num)})")
    return q


def _try_divide(num: SparsePoly, div: SparsePoly):
    """Exact quotient as SparsePoly, or None.  Handles Laurent inputs."""
    if num.is_zero():
        return num
    nd = len(div.terms)
    if nd == 1:
        ((e, c),) = div.terms.items()
        inv = Fraction(1, c) if c != 1 else 1
        return num.shift(tuple(-k for k in e)).scale(inv)
    if nd == 2:
        out = _divide_two_term(num.terms, div.terms)
        return None if out is None else SparsePoly._raw(num.vars, out)
    # strip monomial content so graded-lex is a well-order on what remains
    shift_div = div.min_exponents()
    shift_num = num.min_exponents()
    dterms = {tuple(a - b for a, b in zip(e, shift_div)): c for e, c in div.terms.items()}
    nterms = {tuple(a - b for a, b in zip(e, shift_num)): c for e, c in num.terms.items()}
    out = _divide_general(nterms, dterms)
    if out is None:
        return None
    back = tuple(a - b for a, b in zip(shift_num, shift_div))
    return SparsePoly._raw(num.vars, out).shift(back)


def _divide_two_term(nterms, dterms):
    """Quotient of a term dict by a two-term divisor, by bucketed long division.

    Write the divisor as c0*x^e0 + c1*x^e1 with e0 graded-lex below e1 and
    d = e1 - e0.  Positions are taken relative to e0, so Laurent exponents need
    no shift and the quotient term at position p has exponent p.  Because e0
    precedes e1, some coordinate j has d_j > 0.  The numerator's terms go into
    buckets by p_j, and the nonempty buckets are walked upward off a heap of
    levels: each term p sets Q[p] = rem[p] / c0 and subtracts c1*Q[p] from
    rem[p + d], d_j levels higher.  The division succeeds exactly when every
    remainder left in the top d_j levels, where no quotient term can sit, is 0.

    Most trial divisions fail, so when c0 = 1 and c1 = +-1 an integer
    numerator is first evaluated modulo a prime p at a fixed point of the
    divisor's zero set (_off_zero_set).  A multiple Q*(1 + c1*x^d) is 0 there:
    with c0 = 1 the recursion makes Q's coefficients integer combinations of
    the numerator's, so Q has a value modulo p too.  A nonzero value therefore
    proves the division fails and no bucket is filled; a zero value or a
    rational numerator proves nothing, and the long division decides as for
    every other divisor.
    """
    (e0, c0), (e1, c1) = sorted(dterms.items(), key=lambda t: _gl_key(t[0]))
    d = tuple(map(sub, e1, e0))
    if c0 == 1 and c1 in (1, -1) and _off_zero_set(nterms, d, c1):
        return None
    j = next(i for i, v in enumerate(d) if v > 0)
    dj = d[j]
    if any(e0):
        rem = {tuple(map(sub, e, e0)): c for e, c in nterms.items()}
    else:
        rem = dict(nterms)
    buckets = {}
    for p in rem:
        buckets.setdefault(p[j], []).append(p)
    top = max(buckets) - dj
    levels = sorted(buckets)  # ascending, so already a heap
    inv = None if c0 == 1 else Fraction(1, c0)
    out = {}
    while levels and levels[0] <= top:
        level = heappop(levels)
        for p in buckets[level]:
            c = rem[p]
            if c:
                out[p] = c = _as_coeff(c if inv is None else c * inv)
                t = tuple(map(add, p, d))
                if t not in rem:
                    if level + dj not in buckets:
                        heappush(levels, level + dj)
                    buckets.setdefault(level + dj, []).append(t)
                rem[t] = rem.get(t, 0) - c1 * c
    if any(rem[p] for level in levels for p in buckets[level]):
        return None
    return out


# The pre-test's modulus, a Mersenne prime: 2 has order 61 modulo it, so
# 2^k is 2^(k % 61) and a power of 2 is a bit shift.  Exponents that meet
# modulo 61 can only hide a failed division from the pre-test, never fake one.
_PRIME = (1 << 61) - 1


def _off_zero_set(nterms, d, c1):
    """True when the numerator provably is no multiple of 1 + c1*x^d (c1 = +-1).

    The numerator is evaluated modulo _PRIME at x_i = 2^(w_i), with x_s
    negated for c1 = 1 (s the first variable with d_s odd).  The weights
    w_i = 3^i*d_j for i != j and w_j = -sum_(i != j) 3^i*d_i, with j the
    first variable with d_j != 0, give w.d = 0, so x^d = -c1 and the divisor
    vanishes at x.  False where no verdict is possible: for 1 + x^d with
    every d_i even (x^d is a square and -1 is none modulo _PRIME), and for a
    numerator with a rational coefficient, which the layer pipeline never
    builds (its numerators are integer polynomials).
    """
    s = None
    if c1 == 1:
        s = next((i for i, v in enumerate(d) if v & 1), None)
        if s is None:
            return False
    j = next(i for i, v in enumerate(d) if v)
    w = [3**i * d[j] for i in range(len(d))]
    w[j] = -sum(3**i * v for i, v in enumerate(d) if i != j)
    total = 0
    for e, c in nterms.items():
        if type(c) is not int:
            return False
        if s is not None and e[s] & 1:
            c = -c
        total += c << (sum(map(mul, w, e)) % 61)
    return total % _PRIME != 0


def _divide_general(nterms, dterms):
    """Long division by an arbitrary divisor (non-negative exponents only)."""
    rem = dict(nterms)
    lead_e, lead_c = max(dterms.items(), key=lambda t: _gl_key(t[0]))
    out = {}
    while rem:
        e, c = max(rem.items(), key=lambda t: _gl_key(t[0]))
        qe = tuple(a - b for a, b in zip(e, lead_e))
        if any(k < 0 for k in qe):
            return None
        qc = _as_coeff(Fraction(c, lead_c)) if lead_c != 1 else c
        out[qe] = qc
        for de, dc in dterms.items():
            key = tuple(a + b for a, b in zip(qe, de))
            v = rem.get(key, 0) - qc * dc
            if v:
                rem[key] = _as_coeff(v)
            elif key in rem:
                del rem[key]
    return out


# -- normalized binomial factors ---------------------------------------------


@dataclass(frozen=True)
class BinomialFactor:
    """A canonical two-term denominator factor.

    Invariants: integer coefficients with gcd 1; componentwise minimum of the
    two exponent vectors is the zero vector (monomial content stripped); the
    graded-lex smaller term has positive coefficient; not a unit monomial.
    """

    variables: tuple[str, ...]
    low: tuple[int, ...]
    low_coeff: int
    high: tuple[int, ...]
    high_coeff: int

    def as_poly(self) -> SparsePoly:
        return SparsePoly._raw(
            self.variables, {self.low: self.low_coeff, self.high: self.high_coeff}
        )

    def sort_key(self):
        return (_gl_key(self.high), self.high_coeff, _gl_key(self.low), self.low_coeff)

    def __repr__(self):
        return f"BinomialFactor({poly_text(self.as_poly())})"


def normalize_factor(p: SparsePoly):
    """Split a nonzero polynomial as scale * monomial * BinomialFactor.

    Returns (factor, shift_exponents, scale) with
    p == factor.as_poly().shift(shift_exponents).scale(scale).
    Raises ValueError when p is zero, a unit monomial, or has more than two
    terms (general denominators never arise here).
    """
    if p.is_zero():
        raise ValueError("zero polynomial cannot be a denominator factor")
    shift = p.min_exponents()
    terms = {tuple(a - b for a, b in zip(e, shift)): c for e, c in p.terms.items()}
    if len(terms) == 1:
        raise ValueError(f"unit monomial factor {poly_text(p)}")
    if len(terms) > 2:
        raise ValueError(f"factor {poly_text(p)} is not a binomial")
    denom_lcm = 1
    for c in terms.values():
        if type(c) is Fraction:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = {e: int(c * denom_lcm) for e, c in terms.items()}
    g = gcd(*ints.values())
    (e0, c0), (e1, c1) = sorted(ints.items(), key=lambda t: _gl_key(t[0]))
    c0 //= g
    c1 //= g
    scale = Fraction(g, denom_lcm)
    if c0 < 0:
        c0, c1, scale = -c0, -c1, -scale
    factor = BinomialFactor(p.vars, e0, c0, e1, c1)
    return factor, shift, _as_coeff(scale)


def _fold_factor(num: SparsePoly, den: dict, p: SparsePoly, power: int) -> SparsePoly:
    """Divide num / den by p^power: add p's factor to den, in place, and return
    num with p's monomial shift and scale folded in."""
    factor, shift, scale = normalize_factor(p)
    den[factor] = den.get(factor, 0) + power
    return num.shift(tuple(-power * k for k in shift)).scale(Fraction(1) / scale**power)


# -- fractions with factored binomial denominators ----------------------------


class FactoredFraction:
    """numerator / product of binomial factors, reduced by construction.

    The denominator is a multiset {BinomialFactor: multiplicity}.  Every
    fraction is reduced: no denominator factor exactly divides the numerator
    (the constructor cancels; _reduced builds what is reduced already).  The
    canonical zero has a zero numerator and an empty denominator.
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
        """Build without cancelling: num / den must be reduced, with den empty if num is 0."""
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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FactoredFraction.from_poly(SparsePoly.constant(self.vars, other))
        self.num._check_context(other.num)
        return frac_sum([self, other], self.vars)

    __radd__ = __add__

    # negation, a nonzero scale and a monomial shift keep a fraction reduced

    def __neg__(self):
        return FactoredFraction._reduced(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FactoredFraction.from_poly(SparsePoly.constant(self.vars, other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, SparsePoly):
            return FactoredFraction(self.num * other, self.den)
        self.num._check_context(other.num)
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        return FactoredFraction(self.num * other.num, den)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return FactoredFraction.zero(self.vars)
        return FactoredFraction._reduced(self.num.scale(c), self.den)

    def shift(self, exps):
        return FactoredFraction._reduced(self.num.shift(exps), self.den)

    def divided_by_poly(self, p: SparsePoly, power: int = 1):
        """Divide by p^power where p normalizes to a binomial factor."""
        if power == 0:
            return self
        if power < 0:
            raise ValueError("negative powers not supported here")
        den = dict(self.den)
        return FactoredFraction(_fold_factor(self.num, den, p, power), den)

    def _times_binomial(self, c, exps, power: int):
        """Multiply by (1 + c*x^exps)^power; a negative power divides."""
        if power == 0:
            return self
        binom = SparsePoly(self.vars, {(0,) * len(exps): 1, tuple(exps): c})
        if power > 0:
            return self * binom**power
        return self.divided_by_poly(binom, -power)

    def equals(self, other) -> bool:
        """Value equality (cross-multiplied over a common denominator)."""
        if isinstance(other, (int, Fraction)):
            other = FactoredFraction.from_poly(SparsePoly.constant(self.vars, other))
        elif isinstance(other, SparsePoly):
            other = FactoredFraction.from_poly(other)
        self.num._check_context(other.num)
        common = _common_denominator([self, other])
        return _lift_numerator(self, common) == _lift_numerator(other, common)

    def __eq__(self, other):
        if isinstance(other, (FactoredFraction, SparsePoly, int, Fraction)):
            return self.equals(other)
        return NotImplemented

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

    def specialize(self, assignment):
        """Specialize variables; denominator factors must stay nonzero."""
        num = self.num.specialize(assignment)
        if not isinstance(num, SparsePoly):
            num = SparsePoly.constant((), num)
        den = {}
        for f, m in self.denominator_factors():
            fp = f.as_poly().specialize(assignment)
            if not isinstance(fp, SparsePoly):
                fp = SparsePoly.constant((), fp)
            if fp.is_zero():
                raise ZeroDivisionError(
                    f"denominator factor {f!r} vanishes under {assignment}"
                )
            if len(fp.terms) == 1:
                ((e, c),) = fp.terms.items()
                num = num.shift(tuple(-m * k for k in e)).scale(Fraction(1) / Fraction(c) ** m)
            else:
                num = _fold_factor(num, den, fp, m)
        return FactoredFraction(num, den)

    def __repr__(self):
        den = " * ".join(
            f"({poly_text(f.as_poly())})" + (f"^{m}" if m > 1 else "")
            for f, m in self.denominator_factors()
        )
        if den:
            return f"FactoredFraction(({poly_text(self.num)}) / {den})"
        return f"FactoredFraction({poly_text(self.num)})"


def _cancel(num, den):
    """Divide out every denominator factor that exactly divides num.

    Afterwards no factor left in the denominator divides the numerator: a
    factor that failed still fails after later divisions, because each later
    quotient divides the numerator it came from.
    """
    out = {}
    for f, m in sorted(den.items(), key=lambda fm: fm[0].sort_key()):
        fp = None
        while m > 0:
            if fp is None:
                fp = f.as_poly()
            q = _try_divide(num, fp)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            out[f] = m
    if num.is_zero():
        return num, {}
    return num, out


def _common_denominator(fracs):
    common = {}
    for fr in fracs:
        for f, m in fr.den.items():
            if common.get(f, 0) < m:
                common[f] = m
    return common


def _lift_numerator(fr, common):
    num = fr.num
    for f, m in sorted(common.items(), key=lambda fm: fm[0].sort_key()):
        extra = m - fr.den.get(f, 0)
        if extra and not num.is_zero():
            fp = f.as_poly()
            for _ in range(extra):
                num = num * fp
    return num


def frac_sum(fracs, variables=None) -> FactoredFraction:
    """Sum fractions over the multiset-maximum common denominator.

    Cancellation runs once on the final result, which keeps long summations
    (partition sums, series recursions) from re-cancelling at every step.
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
    common = _common_denominator(fracs)
    total = SparsePoly.zero(variables)
    for fr in fracs:
        total = total + _lift_numerator(fr, common)
    return FactoredFraction(total, common)


def adams(fr: FactoredFraction, r: int, flavor: Flavor) -> FactoredFraction:
    """Adams substitution on a factored fraction (exact, denominator-safe).

    Substituted denominator factors are renormalized, with sign and monomial
    compensation absorbed into the numerator.
    """
    if r == 1:
        if fr.vars != flavor.variables:
            raise ContextError(f"flavor {flavor.name} does not match {fr.vars}")
        return fr
    num = adams_poly(fr.num, r, flavor)
    den = {}
    for f, m in fr.den.items():
        num = _fold_factor(num, den, adams_poly(f.as_poly(), r, flavor), m)
    return FactoredFraction(num, den)
