"""Exact character tables via Dixon's modular eigenvector method.

The pipeline: walk the powers of each class representative once, which gives
its order, the classes of its powers and the exponent e of G; take the class-
multiplication matrices M_i[j][k] = a_ijk over a prime p with p ≡ 1 (mod e)
and p > 2|G| (every a_ijk <= |G| is already reduced); deterministically refine
the full space into their one-dimensional common eigenspaces.  Every basis in
the refinement is the identity at its pivot coordinates (the unit columns at
first, then kernel vectors that are 1 at their own free column and 0 at the
others), so the matrix of M_i on a span is read off the images at the pivots
rather than solved for.  Then normalize each eigenvector v at the identity
class so that v_k = |C_k| chi(g_k) / chi(1) (mod p); recover the degrees from
the orthogonality relation (with p > |G| the degree squares are literal
integers, no modular square-root ambiguity); and lift every value to an exact
cyclotomic integer through the eigenvalue multiplicities m_j = (1/o) * sum_s
chi(g^s) z^(-js) of the o-th roots of unity.  The inverse-DFT rows z^(-js) mod
p and 1/o are built once per element order and shared by every character and
class, so each multiplicity is one dot product of int lists, and the value is
sum_j m_j times the reduced coordinates of a root of unity, precomputed once
per e.  Both orthogonality relations are verified exactly in Z[zeta] before a
table is returned.  The check packs every value into one int with signed
slots, so a relation's total T is a sum of int products in Z[x]/(x^e - 1).
T equals the wanted |G| or 0 in Z[zeta] exactly when x^e - 1 divides
(T - want) * Psi_e, with the cofactor Psi_e = (x^e - 1) / Phi_e multiplied
into the row and column values once; so each relation is one residue modulo
2^(width*e) - 1, with nothing unpacked or reduced.  The slot width is proven
from the l1 norms of the coordinates and |Psi_e|_inf: as deg Psi_e < e, no
folded coefficient of (T - want) * Psi_e exceeds (|T|_1 + |G|) * |Psi_e|_inf,
so a zero residue is the zero polynomial.

A character value is its coordinate tuple: integers in the power basis of a
primitive e-th root of unity, reduced modulo the e-th cyclotomic polynomial,
so equality is literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul

from .errors import LiftFailure, NonIntegralCount
from .groups import ConjugacyData, MatrixGroup, _is_prime


# -- exact cyclotomic integers -------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial."""
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _int_poly_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _int_poly_div(num, den):
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    assert all(v == 0 for v in num)
    return out


def _reduce_mod_cyclotomic(coeffs, e):
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    # phi is monic: subtracting c * x^(k-deg) * phi clears x^k (dropped below),
    # so only phi's nonzero lower terms are applied
    lower = [(i - deg, p) for i, p in enumerate(phi[:deg]) if p]
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i, p in lower:
                coeffs[k + i] -= c * p
    del coeffs[deg:]
    coeffs.extend([0] * (deg - len(coeffs)))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _roots_of_unity(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The coordinates of zeta_e^k for each k < e, as their nonzero (index, value) pairs."""
    return tuple(
        tuple((i, c) for i, c in enumerate(_reduce_mod_cyclotomic([0] * k + [1], e)) if c)
        for k in range(e)
    )


def _from_root_multiplicities(e: int, step: int, mults) -> tuple[int, ...]:
    """Coordinates of sum_j mults[j] * zeta_e^(j*step), summed from the reduced
    coordinates of each root (reduction mod Phi_e is linear)."""
    roots = _roots_of_unity(e)
    coeffs = [0] * (len(cyclotomic_polynomial(e)) - 1)
    for j, m in enumerate(mults):
        if m:
            for i, c in roots[(j * step) % e]:
                coeffs[i] += m * c
    return tuple(coeffs)


# -- dense linear algebra mod p -------------------------------------------------


def _rref(rows, p):
    """Row-reduce in place over F_p; returns the pivot column list."""
    pivots = []
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return pivots


def _kernel_basis(matrix, p):
    """Free columns and kernel basis of a square matrix over F_p, each vector 1
    at its own free column and 0 at the others."""
    s = len(matrix)
    rows = [list(row) for row in matrix]
    pivots = _rref(rows, p)
    free = [c for c in range(s) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * s
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][fc]) % p
        basis.append(vec)
    return free, basis


def _charpoly(matrix, p):
    """det(xI - M) as ascending coefficients over F_p, monic, by Faddeev-LeVerrier.

    The recursion divides by 1..s for an s x s matrix, which is valid because
    p > 2|G| > s.
    """
    s = len(matrix)
    coeffs = [0] * s + [1]
    product = [[0] * s for _ in range(s)]  # M A_{k-1}, with A_0 = 0
    for k in range(1, s + 1):
        for i in range(s):  # A_k = M A_{k-1} + c_{s-k+1} I
            product[i][i] += coeffs[s - k + 1]
        cols = list(zip(*product))
        product = [[sum(map(mul, row, col)) % p for col in cols] for row in matrix]
        coeffs[s - k] = -sum(product[i][i] for i in range(s)) * pow(k, p - 2, p) % p
    return coeffs


def _poly_roots_mod(coeffs, p):
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _primitive_root(p):
    if p == 2:
        return 1
    factors = []
    n = p - 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p ≡ 1 (mod exponent) with p > 2*order."""
    p = 2 * order + 1
    rem = (p - 1) % exponent
    if rem:
        p += exponent - rem
    while not _is_prime(p):
        p += exponent
    return p


# -- the character table --------------------------------------------------------


@dataclass(frozen=True)
class CharacterTable:
    """Exact irreducible characters of an enumerated matrix group.

    rows[chi][k] is the value of character chi on class k of group.conjugacy(),
    as its coordinate tuple in Z[zeta_e] (e = cyclotomic_order); the identity
    class holds (degrees[chi], 0, ...).
    """

    group: MatrixGroup
    conjugacy: ConjugacyData
    cyclotomic_order: int
    modular_prime: int
    degrees: tuple[int, ...]
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.conjugacy.classes)


def character_table(group: MatrixGroup) -> CharacterTable:
    """Compute the exact character table by the Burnside-Dixon method."""
    data = group.conjugacy()
    r = len(data.classes)
    sizes = data.sizes
    ident = data.identity_class

    # one walk rep^0, rep^1, ... per class representative: the classes it
    # passes, its length (the representative's order), and e, their lcm
    cayley = group.mul
    power_class = []
    for rep in data.representatives:
        walk = [ident]
        x = rep
        while x != group.identity:
            walk.append(data.class_of[x])
            x = cayley[x][rep]
        power_class.append(walk)
    e = lcm(*map(len, power_class))
    p = dixon_prime(group.order, e)

    # deterministic refinement into common eigenspaces; every basis is the
    # identity at its pivot coordinates, so the matrix of M_i on its span is
    # the images read at the pivots
    spaces = [([[int(j == k) for j in range(r)] for k in range(r)], range(r))]
    for i in range(r):
        if i == ident:
            continue
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        new_spaces = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, pivots))
                continue
            images = [_apply(data.a_ijk[i], col, p) for col in basis]
            c_small = [[img[t] for img in images] for t in pivots]
            basis_rows = list(zip(*basis))
            roots = _poly_roots_mod(_charpoly(c_small, p), p)
            total = 0
            for lam in roots:
                shifted = [
                    [(c_small[u][v] - (lam if u == v else 0)) % p for v in range(len(basis))]
                    for u in range(len(basis))
                ]
                free, kernel = _kernel_basis(shifted, p)
                eigenspace = [_apply(basis_rows, vec, p) for vec in kernel]
                total += len(eigenspace)
                new_spaces.append((eigenspace, [pivots[f] for f in free]))
            assert total == len(basis), "class algebra failed to split"
        spaces = new_spaces
    assert all(len(basis) == 1 for basis, _ in spaces) and len(spaces) == r

    omegas = []
    for (v,), _ in spaces:
        if v[ident] == 0:
            raise LiftFailure("eigenvector vanishes at the identity class")
        scale = pow(v[ident], p - 2, p)
        omegas.append([(x * scale) % p for x in v])

    inv_class = data.inverse_class
    size_inv = [pow(s, p - 2, p) for s in sizes]
    degrees = []
    for om in omegas:
        s_chi = sum(om[k] * om[inv_class[k]] * size_inv[k] for k in range(r)) % p
        chi1_sq = (group.order * pow(s_chi, p - 2, p)) % p
        d = isqrt(chi1_sq)
        if d * d != chi1_sq:
            raise LiftFailure(f"degree^2 = {chi1_sq} is not a perfect square")
        degrees.append(d)
    if sum(d * d for d in degrees) != group.order:
        raise LiftFailure("degree squares do not sum to the group order")

    chi_mod = [
        [(om[k] * d * size_inv[k]) % p for k in range(r)]
        for om, d in zip(omegas, degrees)
    ]

    # the inverse DFT of order o: rows z^(-js) for j < o, and 1/o, shared by
    # every character and every class whose representative has order o
    w = pow(_primitive_root(p), (p - 1) // e, p)
    dft = {}
    for o in set(map(len, power_class)):
        zinv = pow(pow(w, e // o, p), p - 2, p)
        zrows = []
        for j in range(o):
            zj = pow(zinv, j, p)
            zrow = [1]
            for _ in range(o - 1):
                zrow.append(zrow[-1] * zj % p)
            zrows.append(zrow)
        dft[o] = (zrows, pow(o, p - 2, p))

    rows = []
    for chi, d in enumerate(degrees):
        values = chi_mod[chi]
        row = []
        for k, walk in enumerate(power_class):
            o = len(walk)
            zrows, o_inv = dft[o]
            powers = [values[c] for c in walk]
            mults = [sum(map(mul, powers, zrow)) * o_inv % p for zrow in zrows]
            for m in mults:
                if m > d:
                    raise LiftFailure(
                        f"multiplicity {m} exceeds degree {d} on class {k}"
                    )
            if sum(mults) != d:
                raise LiftFailure(f"multiplicities sum to {sum(mults)}, degree {d}")
            row.append(_from_root_multiplicities(e, e // o, mults))
        rows.append(row)

    order = sorted(range(r), key=lambda i: (degrees[i], rows[i]))
    degrees = tuple(degrees[i] for i in order)
    rows = tuple(tuple(rows[i]) for i in order)

    table = CharacterTable(group, data, e, p, degrees, rows)
    verify_orthogonality(table)
    return table


def _apply(matrix, col, p):
    return [sum(map(mul, row, col)) % p for row in matrix]


def _pack(coords, width, e, sign=1):
    """sum_j coords[j] * 2^(width * (sign*j mod e)): x^j in slot j, or x^-j for sign -1."""
    return sum(c << (width * ((sign * j) % e)) for j, c in enumerate(coords) if c)


@lru_cache(maxsize=None)
def _cofactor(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Psi_e = (x^e - 1) / Phi_e, of degree e - deg Phi_e < e."""
    return tuple(_int_poly_div([-1] + [0] * (e - 1) + [1], cyclotomic_polynomial(e)))


def _relation(e: int, bound: int):
    """The slot width, the packed cofactor psi = Psi_e(2^width) and the test
    holds(total, want) for packed elements T of Z[x] with |T - want|_1 <= bound.

    T = want in Z[zeta_e] exactly when Phi_e divides T - want in Z[x], that is
    when x^e - 1 = Phi_e * Psi_e divides (T - want) * Psi_e.  holds takes
    total = T(2^width) * psi and asks whether total - want * psi is 0 modulo
    2^(width*e) - 1, where 2^(width*e) = 1, so x^(i+e) folds onto x^i as in
    Z[x]/(x^e - 1).  As deg Psi_e < e, each coefficient of the folded product
    takes each coefficient of the folded T - want once, times one of Psi_e's,
    so none exceeds bound * |Psi_e|_inf < 2^(width-1).  The folded value is then
    below half the modulus, so a zero residue means a zero value, and a zero
    value with every slot inside +-2^(width-1) is the zero polynomial.  Nothing
    is unpacked and nothing is reduced mod Phi_e.
    """
    psi = _cofactor(e)
    width = (bound * max(map(abs, psi))).bit_length() + 1
    packed = _pack(psi, width, e)
    modulus = (1 << (width * e)) - 1

    def holds(total, want):
        return (total - want * packed) % modulus == 0

    return width, packed, holds


def verify_orthogonality(table: CharacterTable):
    """Both orthogonality relations, exactly in Z[zeta].

    Every value is packed into one int with signed slots of `width` bits, its
    conjugate likewise with x^j moved to slot -j mod e, so each relation's
    total is a sum of int products: a packed element T of Z[x]/(x^e - 1).  The
    l1 norm of a row total is at most sum_k |C_k| |a_k|_1 |b_k|_1 (the l1 norms
    of the coordinate vectors), that of a column total at most
    |C_k| sum_a |a_k|_1 |a_l|_1; with the wanted |G| or 0 added, that bounds
    |T - want|_1.  The class-size-scaled row values and the column values are
    multiplied once by the packed cofactor Psi_e = (x^e - 1) / Phi_e, so each
    total comes out as T * Psi_e, and T = want in Z[zeta] exactly when it is
    want * Psi_e modulo 2^(width*e) - 1 (_relation, which proves the width
    from that bound and |Psi_e|_inf).  Row pairs are tried before column
    pairs, each in ascending order, and the first failing pair is named.
    """
    sizes = table.conjugacy.sizes
    order = table.group.order
    r = table.num_classes
    e = table.cyclotomic_order
    norms = [[sum(map(abs, v)) for v in row] for row in table.rows]
    cols = list(zip(*norms))
    bound = max(
        max(
            sum(s * x * y for s, x, y in zip(sizes, norms[a], norms[b]))
            for a in range(r)
            for b in range(a, r)
        ),
        max(
            sizes[k] * sum(map(mul, cols[k], cols[l]))
            for k in range(r)
            for l in range(k, r)
        ),
    )
    width, psi, holds = _relation(e, bound + order)
    packed = [[_pack(v, width, e) for v in row] for row in table.rows]
    conj = [[_pack(v, width, e, -1) for v in row] for row in table.rows]

    scaled = [[s * x * psi for s, x in zip(sizes, row)] for row in packed]
    for a in range(r):
        for b in range(a, r):
            total = sum(map(mul, scaled[a], conj[b]))
            if not holds(total, order if a == b else 0):
                raise LiftFailure(f"row orthogonality fails for characters {a}, {b}")
    packed_cols = [[x * psi for x in col] for col in zip(*packed)]
    conj_cols = list(zip(*conj))
    for k in range(r):
        for l in range(k, r):
            total = sizes[k] * sum(map(mul, packed_cols[k], conj_cols[l]))
            if not holds(total, order if k == l else 0):
                raise LiftFailure(f"column orthogonality fails for classes {k}, {l}")


# -- Frobenius-type counting sums -------------------------------------------------


@dataclass(frozen=True)
class FrobeniusCounts:
    """Character-sum counts for products of g commutators hitting xi.

    tuple_prediction = |G|^(2g-1) * sum_chi chi(xi)/chi(1)^(2g-1), the
    classical Frobenius solution count; point_count = tuple_prediction / |G|,
    the character-formula value (an exact rational).
    """

    tuple_prediction: int
    point_count: Fraction


def frobenius_sums(table: CharacterTable, g: int, xi: int) -> FrobeniusCounts:
    """Evaluate the counting sums at a central element xi (an element index)."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    data = table.conjugacy
    k = data.class_of[xi]
    if data.sizes[k] != 1:
        raise ValueError("xi must be central (singleton conjugacy class)")
    big_l = lcm(*table.degrees)
    denom = big_l ** (2 * g - 1)
    total = [0] * len(table.rows[0][k])
    for row, d in zip(table.rows, table.degrees):
        weight = (big_l // d) ** (2 * g - 1)
        total = [t + weight * c for t, c in zip(total, row[k])]
    if any(total[1:]):
        raise NonIntegralCount("character sum is not a rational integer")
    order = table.group.order
    tuples = Fraction(order ** (2 * g - 1) * total[0], denom)
    if tuples.denominator != 1 or tuples < 0:
        raise NonIntegralCount(
            f"tuple prediction {tuples} is not a non-negative integer"
        )
    tuples_int = int(tuples)
    return FrobeniusCounts(tuples_int, Fraction(tuples_int, order))
