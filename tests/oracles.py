"""Reference code that only the tests call.

Each helper is a slower or more direct route to something charvar computes,
kept here as an oracle for it:

- ``series_exp`` and ``plethystic_exp_of_layers`` reassemble the partition sum
  from its rank layers, the round trip of ``extract_layers``;
- ``specialize_fraction`` specializes a FactoredFraction, folding each
  denominator factor that stays a binomial back through the cancellation;
- ``divided_by`` divides a FactoredFraction by a power of a two-term
  polynomial, and ``reference_normalize_factor`` is the normalization of one
  on its term dict, the reference for the two-term normalizer;
- ``reference_frac_sum`` sums fractions over the multiset maximum of their
  binomials, the reference for the sum over the lcm on each line;
- ``direct_mul_table`` multiplies every pair of matrices and looks the
  product up, the reference for the row-composed ``MatrixGroup.mul``;
- ``mat_inv`` inverts a 2x2 matrix by its adjugate over F_p, the reference
  for ``MatrixGroup.inv``, which reads inverses off the Cayley table;
- ``table_document`` is the canonical JSON document of a character table,
  whose digest pins the Dixon splitting byte for byte;
- ``zeta_power`` and ``cyc_times_conjugate`` are Z[zeta_e] arithmetic on
  coordinate tuples, one product at a time, the reference for the packed
  orthogonality check, and ``from_root_multiplicities`` reduces a sum of
  roots of unity once, the reference for the lift from reduced roots;
- ``tuple_add``, ``tuple_mul``, ``tuple_scale`` and ``tuple_divide_two_term``
  are the sum, product, rational scale and bucketed long division on
  exponent-tuple term dicts, the reference for the kernels on packed keys;
- ``jet_by_pass`` evaluates a polynomial's pre-test jet term by term, the
  reference for the jets that the kernels carry instead.
"""

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import add, mul, sub

from charvar.characters import _reduce_mod_cyclotomic
from charvar.polynomials import (
    BinomialFactor,
    FactoredFraction,
    SparsePoly,
    _as_coeff,
    _PRIME,
    _fold_factor,
    _gl_key,
    adams,
    frac_sum,
    normalize_factor,
    poly_text,
)
from charvar.series import TruncatedSeries

# -- the round trip of the rank layers -------------------------------------------


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of series_log: E = exp(sum_m W_m T^m / m), from the W_m.

    Uses m*E_m = sum_{k=1..m} W_k*E_{m-k}; wants W_0 = 0.
    """
    if not s.coeffs[0].is_zero():
        raise ValueError("series_exp wants constant coefficient 0")
    variables = s.flavor.variables
    e = [FactoredFraction.one(variables)]
    for m in range(1, s.order + 1):
        terms = []
        for k in range(1, m + 1):
            if s.coeffs[k].is_zero() or e[m - k].is_zero():
                continue
            terms.append(s.coeffs[k] * e[m - k])
        e.append(frac_sum(terms, variables).scale(Fraction(1, m)))
    return TruncatedSeries(s.flavor, tuple(e))


def plethystic_exp_of_layers(flavor, layers, order: int) -> TruncatedSeries:
    """Reassemble exp(sum_n sum_r adams_r[V_n] T^(nr) / r) up to T^order.

    Takes the scaled layers X_n = n*V_n and adds adams_r[X_n] to W_(n*r).
    With layers from extract_layers this reproduces hook_sum_series exactly.
    """
    variables = flavor.variables
    log_coeffs = [[] for _ in range(order + 1)]
    for n, layer in enumerate(layers, start=1):
        if layer.is_zero():
            continue
        r = 1
        while n * r <= order:
            log_coeffs[n * r].append(adams(layer, r, flavor))
            r += 1
    log_series = TruncatedSeries(
        flavor, tuple(frac_sum(t, variables) for t in log_coeffs)
    )
    return series_exp(log_series)


# -- specialization of a fraction --------------------------------------------------


def specialize_fraction(fr: FactoredFraction, assignment) -> FactoredFraction:
    """Specialize variables; denominator factors must stay nonzero."""
    num = fr.num.specialize(assignment)
    if not isinstance(num, SparsePoly):
        num = SparsePoly.constant((), num)
    den = {}
    for f, m in fr.denominator_factors():
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
            num = _fold_factor(num, den, normalize_factor(fp), m)
    return FactoredFraction(num, den)


# -- two-term denominator factors ------------------------------------------------


def divided_by(fr: FactoredFraction, p: SparsePoly, power: int = 1) -> FactoredFraction:
    """fr / p^power for a two-term p, its normalized factor folded into fr."""
    den = dict(fr.den)
    return FactoredFraction(_fold_factor(fr.num, den, normalize_factor(p), power), den)


def reference_frac_sum(fracs) -> FactoredFraction:
    """The sum over the multiset maximum of the summands' binomials: each
    numerator lifted by every factor its summand lacks, the total cancelled."""
    common = {}
    for fr in fracs:
        for f, m in fr.den.items():
            common[f] = max(common.get(f, 0), m)
    total = SparsePoly.zero(fracs[0].vars)
    for fr in fracs:
        num = fr.num
        for f, m in common.items():
            for _ in range(m - fr.den.get(f, 0)):
                num = num * f.as_poly()
        total = total + num
    return FactoredFraction(total, common)


def reference_normalize_factor(p: SparsePoly):
    """(factor, shift, scale) of a two-term p on its term dict: shift out the
    minimum exponents, clear denominators, divide out the gcd and make the
    graded-lex smaller term's coefficient positive."""
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
    scale = g if denom_lcm == 1 else Fraction(g, denom_lcm)
    if c0 < 0:
        c0, c1, scale = -c0, -c1, -scale
    return BinomialFactor(p.vars, e0, c0, e1, c1), shift, scale


# -- matrix groups -------------------------------------------------------------------


def direct_mul_table(group) -> list[list[int]]:
    """mul[i][j] = index of elements[i] * elements[j], one matrix product per pair."""
    p = group.q
    idx = group.index
    table = []
    for a0, a1, a2, a3 in group.elements:
        row = []
        for b0, b1, b2, b3 in group.elements:
            key = (
                (a0 * b0 + a1 * b2) % p,
                (a0 * b1 + a1 * b3) % p,
                (a2 * b0 + a3 * b2) % p,
                (a2 * b1 + a3 * b3) % p,
            )
            row.append(idx[key])
        table.append(row)
    return table


def mat_inv(m, p):
    """The inverse of the 2x2 matrix m = (a, b, c, d) over F_p, by its adjugate."""
    a, b, c, d = m
    det = (a * d - b * c) % p
    di = pow(det, p - 2, p)
    return ((d * di) % p, (-b * di) % p, (-c * di) % p, (a * di) % p)


# -- character tables ----------------------------------------------------------------


def table_document(table) -> dict:
    """The canonical JSON document of a character table (document version 1)."""
    reps = []
    for k, rep in enumerate(table.conjugacy.representatives):
        a, b, c, d = table.group.elements[rep]
        reps.append(
            {
                "representative": [[a, b], [c, d]],
                "size": table.conjugacy.sizes[k],
                "order": table.group.element_order(rep),
            }
        )
    return {
        "group": {
            "family": table.group.family,
            "q": table.group.q,
            "order": table.group.order,
        },
        "cyclotomic_order": table.cyclotomic_order,
        "classes": reps,
        "degrees": list(table.degrees),
        "rows": [[list(v) for v in row] for row in table.rows],
        "version": 1,
    }


def zeta_power(e: int, k: int) -> tuple[int, ...]:
    """Coordinates of zeta_e^k."""
    return _reduce_mod_cyclotomic([0] * (k % e) + [1], e)


def cyc_times_conjugate(e: int, a, b) -> tuple[int, ...]:
    """Coordinates of a * conj(b) in Z[zeta_e], one coordinate product at a time.

    zeta^i * conj(zeta^j) = zeta^((i - j) mod e); the sum is then reduced
    modulo the e-th cyclotomic polynomial.
    """
    coeffs = [0] * e
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            coeffs[(i - j) % e] += x * y
    return _reduce_mod_cyclotomic(coeffs, e)


def from_root_multiplicities(e: int, step: int, mults) -> tuple[int, ...]:
    """Coordinates of sum_j mults[j] * zeta_e^(j*step), reduced once."""
    coeffs = [0] * e
    for j, m in enumerate(mults):
        coeffs[(j * step) % e] += m
    return _reduce_mod_cyclotomic(coeffs, e)


# -- term dicts keyed by exponent tuples ----------------------------------------------


def tuple_add(a, b):
    """The terms of the sum of two term dicts."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = _as_coeff(v)
        elif e in out:
            del out[e]
    return out


def tuple_scale(a, c):
    """The terms of a term dict times a nonzero rational, each product in Fraction."""
    return {e: _as_coeff(Fraction(v) * c) for e, v in a.items()}


def tuple_mul(a, b):
    """The terms of the product of two nonempty term dicts in k variables."""
    if len(a) > len(b):
        a, b = b, a
    zero = (0,) * len(next(iter(a)))
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
    return {e: _as_coeff(c) for e, c in out.items()}


def tuple_divide_two_term(nterms, e0, c0, d, c1):
    """Quotient of a term dict by c0*x^e0 + c1*x^(e0+d), or None, by bucketed long division.

    e0 is graded-lex below e0 + d, so some coordinate j has d_j > 0.  The
    numerator's terms, taken relative to e0, go into buckets by p_j, walked
    upward off a heap of levels: each term p sets Q[p] = rem[p] / c0 and
    subtracts c1*Q[p] from rem[p + d].  The division succeeds exactly when
    every remainder left in the top d_j levels is 0.  A position t that a
    chain creates must become a quotient term, so the division fails when t_j
    lies above its line's top minus d_j or its line {t + k*d} holds no
    numerator term.
    """
    j = next(i for i, v in enumerate(d) if v > 0)
    dj = d[j]
    rem = {tuple(map(sub, e, e0)): c for e, c in nterms.items()}
    buckets = {}
    for p in rem:
        buckets.setdefault(p[j], []).append(p)
    top = max(buckets) - dj
    levels = sorted(buckets)  # ascending, so already a heap
    inv = None if c0 == 1 else Fraction(1, c0)
    lines = None  # line key -> its numerator's top p_j, built on demand
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
                        if lines is None:
                            lines = {}
                            for e in nterms:
                                q = tuple(map(sub, e, e0))
                                key = _line_key(q, d, j)
                                if lines.get(key, q[j]) <= q[j]:
                                    lines[key] = q[j]
                        line_top = lines.get(_line_key(t, d, j))
                        if line_top is None or t[j] > line_top - dj:
                            return None
                        heappush(levels, level + dj)
                    buckets.setdefault(level + dj, []).append(t)
                rem[t] = rem.get(t, 0) - c1 * c
    if any(rem[p] for level in levels for p in buckets[level]):
        return None
    return out


def _line_key(p, d, j):
    """The point of the line {p + k*d} whose coordinate j lies in [0, d_j)."""
    k = p[j] // d[j]
    return tuple(a - k * b for a, b in zip(p, d))


# -- the pre-test's jets ------------------------------------------------------------


def jet_by_pass(poly, pt):
    """poly's jet (phi(poly), phi(D*poly)) at a test point, by one pass over its terms.

    pt = (w, s, j) stands for x_i = 2^(w_i) modulo _PRIME, with x_s negated
    when s is not None, and D = x_j*d/dx_j; the jet of a term c*x^e is
    (c*x^e, e_j*c*x^e) there.  (None, None) when a coefficient is rational.
    """
    weights, s, j = pt
    value = deriv = 0
    for e, c in poly.terms.items():
        if type(c) is not int:
            return None, None
        m = pow(2, sum(map(mul, weights, e)), _PRIME)
        if s is not None and e[s] % 2:
            m = -m
        value += c * m
        deriv += e[j] * c * m
    return value % _PRIME, deriv % _PRIME
