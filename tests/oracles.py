"""Reference code that only the tests call.

Each helper is a slower or more direct route to something charvar computes,
kept here as an oracle for it:

- ``series_exp`` and ``plethystic_exp_of_layers`` reassemble the partition sum
  from its rank layers, the round trip of ``extract_layers``;
- ``specialize_fraction`` specializes a FactoredFraction, folding each
  denominator factor that stays a binomial back through the cancellation;
- ``divided_by`` divides a FactoredFraction by a power of a binomial 1 +- x^d;
- ``reference_frac_sum`` sums fractions over the multiset maximum of their
  binomials, the reference for the sum over the lcm on each line;
- ``direct_mul_table`` multiplies every pair of matrices (``mat_mul``) and
  looks the product up, the reference for the row-composed ``MatrixGroup.mul``;
- ``mat_inv`` inverts a 2x2 matrix by its adjugate over F_p, the reference
  for ``MatrixGroup.inv``, which reads inverses off the Cayley table;
- ``reference_class_constants`` counts a_ijk over all |G|^2 products, the
  reference for the count at each class representative, and ``power_walk``
  multiplies out the powers of one element, the reference for
  ``ConjugacyData.powers``;
- ``table_document`` is the canonical JSON document of a character table,
  whose digest pins the Dixon splitting byte for byte;
- ``reference_verify_orthogonality`` checks both orthogonality relations,
  rows and then columns, the reference for ``verify_orthogonality``, which
  checks the rows and the table's shape;
- ``reference_document`` builds an invariant's document as a dict, one dict
  per term, the reference for the direct renderer ``canonical_bytes``;
- ``faddeev_leverrier_charpoly`` is the characteristic polynomial over F_p
  by the trace recursion, the reference for the Hessenberg reduction, and
  ``roots_by_full_scan`` evaluates a polynomial at every point of F_p, the
  reference for the deflating root scan;
- ``cyclotomic`` builds Phi_e as the Moebius product of the x^d - 1, and
  ``reduce_mod_cyclotomic`` reduces modulo it, sharing no code with
  charvar.characters: the reference for ``cyclotomic_polynomial``;
- ``zeta_power`` and ``cyc_times_conjugate`` are Z[zeta_e] arithmetic on
  coordinate tuples, one product at a time, the reference for the packed
  orthogonality check, whose totals ``folded_times_conjugate`` sums unreduced
  in Z[x]/(x^e - 1), and ``from_root_multiplicities`` reduces a sum of
  roots of unity once, the reference for the lift from reduced roots;
- ``tuple_add``, ``tuple_mul``, ``tuple_scale`` and ``tuple_divide_two_term``
  are the sum, product, exact rational scale and bucketed long division by
  1 +- x^d on exponent-tuple term dicts, the reference for the kernels on
  packed keys;
- ``jet_by_pass`` evaluates a polynomial's pre-test jet term by term, the
  reference for the jets that the kernels carry instead.
"""

from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from operator import add, mul

from charvar.characters import _pack, _relation
from charvar.errors import LiftFailure
from charvar.polynomials import (
    BinomialFactor,
    FactoredFraction,
    SparsePoly,
    _PRIME,
    adams,
    frac_sum,
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
    """Specialize variables to +-1 or to variable names.

    Each denominator factor 1 + c*x^d then becomes 1 +- x^d', or the constant
    2 where d' = 0 (NonIntegerCoefficient where the numerator's coefficients
    are not divisible by it), or 0, which raises ZeroDivisionError.
    """
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
        if len(fp.terms) == 1:  # the constant 2
            num = num.scale(Fraction(1, fp.coefficient((0,) * len(fp.vars)) ** m))
        else:
            factor = binomial_factor(fp)
            den[factor] = den.get(factor, 0) + m
    return FactoredFraction(num, den)


# -- binomial denominator factors --------------------------------------------------


def binomial_factor(p: SparsePoly) -> BinomialFactor:
    """The BinomialFactor of p = 1 + c*x^d (ValueError for another p)."""
    ((d, c),) = (p - 1).terms.items()
    return BinomialFactor(p.vars, d, c)


def divided_by(fr: FactoredFraction, p: SparsePoly, power: int = 1) -> FactoredFraction:
    """fr / p^power for p = 1 + c*x^d, its BinomialFactor added to fr's denominator."""
    den = dict(fr.den)
    factor = binomial_factor(p)
    den[factor] = den.get(factor, 0) + power
    return FactoredFraction(fr.num, den)


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


# -- matrix groups -------------------------------------------------------------------


def mat_mul(a, b, p):
    """The product of the 2x2 matrices a = (a0, a1, a2, a3) and b over F_p."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        (a0 * b0 + a1 * b2) % p,
        (a0 * b1 + a1 * b3) % p,
        (a2 * b0 + a3 * b2) % p,
        (a2 * b1 + a3 * b3) % p,
    )


def direct_mul_table(group) -> list[list[int]]:
    """mul[i][j] = index of elements[i] * elements[j], one matrix product per pair."""
    idx = group.index
    return [[idx[mat_mul(a, b, group.q)] for b in group.elements] for a in group.elements]


def mat_inv(m, p):
    """The inverse of the 2x2 matrix m = (a, b, c, d) over F_p, by its adjugate."""
    a, b, c, d = m
    det = (a * d - b * c) % p
    di = pow(det, p - 2, p)
    return ((d * di) % p, (-b * di) % p, (-c * di) % p, (a * di) % p)


def reference_class_constants(group):
    """a_ijk from all |G|^2 products x*y, counted by the classes of x, y and
    x*y and divided by |C_k|, each division asserted exact."""
    data = group.conjugacy()
    class_of = data.class_of
    r = len(data.classes)
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x, row in enumerate(group.mul):
        plane = counts[class_of[x]]
        for y, xy in enumerate(row):
            plane[class_of[y]][class_of[xy]] += 1
    a_ijk = []
    for plane in counts:
        lines = []
        for line in plane:
            assert all(c % s == 0 for c, s in zip(line, data.sizes))
            lines.append(tuple(c // s for c, s in zip(line, data.sizes)))
        a_ijk.append(tuple(lines))
    return tuple(a_ijk)


def power_walk(group, i) -> tuple[int, ...]:
    """The classes of m^0, m^1, ... up to the last power before the identity,
    for m = elements[i], by matrix products over F_q."""
    class_of = group.conjugacy().class_of
    m = group.elements[i]
    walk = [class_of[group.identity]]
    power = m
    while power != (1, 0, 0, 1):
        walk.append(class_of[group.index[power]])
        power = mat_mul(power, m, group.q)
    return tuple(walk)


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


def reference_verify_orthogonality(table):
    """Both orthogonality relations, packed as verify_orthogonality packs them:
    the row pairs, then the column pairs, each in ascending order, under one
    bound |G| s N^2 + |G| for s rows.  It reads the columns by position, so a
    short row whose missing value is 0 passes the rows and then raises
    IndexError."""
    sizes = table.conjugacy.sizes
    order = table.group.order
    e = table.cyclotomic_order
    s = len(table.rows)
    n = max(sum(map(abs, v)) for row in table.rows for v in row)
    width, psi, holds = _relation(e, sum(sizes) * s * n * n + order)
    packed = [[_pack(v, width, e) for v in row] for row in table.rows]
    conj = [[_pack(v, width, e, -1) for v in row] for row in table.rows]

    scaled = [[c * x * psi for c, x in zip(sizes, row)] for row in packed]
    for a in range(s):
        for b in range(a, s):
            total = sum(map(mul, scaled[a], conj[b]))
            if not holds(total, order if a == b else 0):
                raise LiftFailure(f"row orthogonality fails for characters {a}, {b}")
    packed_cols = [[x * psi for x in col] for col in zip(*packed)]
    conj_cols = list(zip(*conj))
    for k in range(len(sizes)):
        for l in range(k, len(sizes)):
            total = sizes[k] * sum(map(mul, packed_cols[k], conj_cols[l]))
            if not holds(total, order if k == l else 0):
                raise LiftFailure(f"column orthogonality fails for classes {k}, {l}")


def reference_document(result) -> dict:
    """The canonical JSON document of an invariant (document version 1) as a dict."""
    return {
        "kind": result.kind.value,
        "n": result.n,
        "g": result.g,
        "vars": list(result.polynomial.vars),
        "terms": [{"e": list(e), "c": str(c)} for e, c in result.polynomial.sorted_terms()],
        "meta": {"dim2N": result.dimension, "checks": result.checks.to_json()},
        "version": 1,
    }


def faddeev_leverrier_charpoly(matrix, p):
    """det(xI - M) as ascending coefficients over F_p, monic, by Faddeev-LeVerrier.

    A_k = M A_(k-1) + c_(s-k+1) I and c_(s-k) = -tr(M A_k) / k, so the
    recursion divides by 1..s: valid for p > s.  The reference for the
    Hessenberg reduction in ``_charpoly``.
    """
    s = len(matrix)
    assert p > s
    coeffs = [0] * s + [1]
    product = [[0] * s for _ in range(s)]  # M A_(k-1), with A_0 = 0
    for k in range(1, s + 1):
        for i in range(s):
            product[i][i] += coeffs[s - k + 1]
        cols = list(zip(*product))
        product = [[sum(map(mul, row, col)) % p for col in cols] for row in matrix]
        coeffs[s - k] = -sum(product[i][i] for i in range(s)) * pow(k, p - 2, p) % p
    return coeffs


def roots_by_full_scan(coeffs, p):
    """Every x in F_p at which the polynomial vanishes, each evaluated on the
    undivided polynomial: the reference for ``_poly_roots_mod``."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _moebius_mu(n):
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


@cache
def cyclotomic(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_e = prod_{d | e} (x^d - 1)^mu(e/d).

    The factors with mu = 1 are multiplied out; each with mu = -1 is then
    divided out from the bottom up, as N = Q * (x^d - 1) gives
    Q_k = Q_(k-d) - N_k, and N's top d coefficients must be Q's top d.
    """
    num, dens = [1], []
    for d in (d for d in range(1, e + 1) if e % d == 0):
        mu = _moebius_mu(e // d)
        if mu == 1:
            num = [(num[k - d] if k >= d else 0) - (num[k] if k < len(num) else 0)
                   for k in range(len(num) + d)]
        elif mu == -1:
            dens.append(d)
    for d in dens:
        padded = [0] * d  # Q_(k-d) at index k
        for k in range(len(num) - d):
            padded.append(padded[k] - num[k])
        assert padded[-d:] == num[-d:]
        num = padded[d:]
    return tuple(num)


def reduce_mod_cyclotomic(coeffs, e: int) -> tuple[int, ...]:
    """The deg Phi_e coordinates of sum_k coeffs[k] x^k modulo Phi_e: from the
    top, each x^k with k >= deg is replaced by x^(k-deg) * (x^deg - Phi_e)."""
    phi = cyclotomic(e)
    deg = len(phi) - 1
    coeffs = list(coeffs) + [0] * deg
    for k in range(len(coeffs) - 1, deg - 1, -1):
        top, coeffs[k] = coeffs[k], 0
        for i in range(deg):
            coeffs[k - deg + i] -= top * phi[i]
    return tuple(coeffs[:deg])


def zeta_power(e: int, k: int) -> tuple[int, ...]:
    """Coordinates of zeta_e^k."""
    return reduce_mod_cyclotomic([0] * (k % e) + [1], e)


def folded_times_conjugate(e: int, a, b) -> list[int]:
    """a * conj(b) in Z[x]/(x^e - 1), unreduced: zeta^i * conj(zeta^j) is
    x^((i - j) mod e), one coordinate product at a time."""
    coeffs = [0] * e
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            coeffs[(i - j) % e] += x * y
    return coeffs


def cyc_times_conjugate(e: int, a, b) -> tuple[int, ...]:
    """Coordinates of a * conj(b) in Z[zeta_e]: the folded product reduced
    modulo the e-th cyclotomic polynomial."""
    return reduce_mod_cyclotomic(folded_times_conjugate(e, a, b), e)


def from_root_multiplicities(e: int, step: int, mults) -> tuple[int, ...]:
    """Coordinates of sum_j mults[j] * zeta_e^(j*step), reduced once."""
    coeffs = [0] * e
    for j, m in enumerate(mults):
        coeffs[(j * step) % e] += m
    return reduce_mod_cyclotomic(coeffs, e)


# -- term dicts keyed by exponent tuples ----------------------------------------------


def tuple_add(a, b):
    """The terms of the sum of two term dicts."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def tuple_scale(a, c):
    """The terms of a term dict times a nonzero rational, each product in
    Fraction, or None where one is not an integer."""
    out = {e: Fraction(v) * c for e, v in a.items()}
    if all(v.denominator == 1 for v in out.values()):
        return {e: v.numerator for e, v in out.items()}


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
    return out


def tuple_divide_two_term(nterms, d, c):
    """Quotient of a term dict by 1 + c*x^d (d >= 0 nonzero), or None, by bucketed long division.

    Some coordinate j has d_j > 0.  The numerator's terms go into buckets by
    p_j, walked upward off a heap of levels: each term p sets Q[p] = rem[p]
    and subtracts c*Q[p] from rem[p + d].  The division succeeds exactly when
    every remainder left in the top d_j levels is 0.  A position t that a
    chain creates must become a quotient term, so the division fails when t_j
    lies above its line's top minus d_j or its line {t + k*d} holds no
    numerator term.
    """
    j = next(i for i, v in enumerate(d) if v > 0)
    dj = d[j]
    rem = dict(nterms)
    buckets = {}
    for p in rem:
        buckets.setdefault(p[j], []).append(p)
    top = max(buckets) - dj
    levels = sorted(buckets)  # ascending, so already a heap
    lines = None  # line key -> its numerator's top p_j, built on demand
    out = {}
    while levels and levels[0] <= top:
        level = heappop(levels)
        for p in buckets[level]:
            v = rem[p]
            if v:
                out[p] = v
                t = tuple(map(add, p, d))
                if t not in rem:
                    if level + dj not in buckets:
                        if lines is None:
                            lines = {}
                            for q in nterms:
                                key = _line_key(q, d, j)
                                if lines.get(key, q[j]) <= q[j]:
                                    lines[key] = q[j]
                        line_top = lines.get(_line_key(t, d, j))
                        if line_top is None or t[j] > line_top - dj:
                            return None
                        heappush(levels, level + dj)
                    buckets.setdefault(level + dj, []).append(t)
                rem[t] = rem.get(t, 0) - c * v
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
    (c*x^e, e_j*c*x^e) there.
    """
    weights, s, j = pt
    value = deriv = 0
    for e, c in poly.terms.items():
        m = pow(2, sum(map(mul, weights, e)), _PRIME)
        if s is not None and e[s] % 2:
            m = -m
        value += c * m
        deriv += e[j] * c * m
    return value % _PRIME, deriv % _PRIME
