"""Exact character tables via Dixon's modular eigenvector method.

The pipeline: the conjugacy data's power walks give each representative's
order and the classes of its powers, and e, their lcm; take the class-
multiplication matrices M_i[j][k] = a_ijk over a prime p with p ≡ 1 (mod e)
and p > 2|G| (every a_ijk <= |G| is already reduced); deterministically refine
the full space into their one-dimensional common eigenspaces.  Every basis in
the refinement is the identity at its pivot coordinates (the unit columns at
first, then kernel vectors that are 1 at their own free column and 0 at the
others), so the matrix of M_i on a span is read off the images at the pivots
rather than solved for; on the unit columns it is M_i itself, and the first
split's kernel vectors are its eigenvectors with no change of basis.  The
eigenvalues on a span are the roots of that matrix's characteristic
polynomial, taken in O(s^3) by a Hessenberg reduction that divides only by
pivots, and found by one scan of F_p that divides out each root as it is
met.  Then normalize each eigenvector v at the identity class so that
v_k = |C_k| chi(g_k) / chi(1) (mod p); recover the degrees from
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
from one closed-form bound |T - want|_1 <= |G| s N^2 + |G| (s rows, N the
largest l1 norm of a value's coordinates) and |Psi_e|_inf: as deg Psi_e < e,
no folded coefficient of (T - want) * Psi_e exceeds their product, so a zero
residue is the zero polynomial.  One monic long division gives Phi_e, Psi_e
and every reduction mod Phi_e; the Frobenius sum is summed in ints, as chi(1)
divides |G|.

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
from .groups import ConjugacyData, MatrixGroup, _is_prime, _prime_factors


# -- exact cyclotomic integers -------------------------------------------------


def _divmod_monic(num, den):
    """(quotient, remainder) of integer polynomials (ascending coefficients) by a
    monic divisor; the remainder has exactly len(den) - 1 coefficients."""
    deg = len(den) - 1
    rem = list(num) + [0] * (deg - len(num))
    quot = [0] * (len(rem) - deg)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + deg]
        if c:
            for i, d in enumerate(den):
                rem[k + i] -= c * d
    return tuple(quot), tuple(rem[:deg])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial."""
    num = (-1,) + (0,) * (e - 1) + (1,)
    for d in range(1, e):
        if e % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
            assert not any(rem)
    return num


@lru_cache(maxsize=None)
def _roots_of_unity(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The coordinates of zeta_e^k for each k < e, as their nonzero (index, value) pairs."""
    phi = cyclotomic_polynomial(e)
    return tuple(
        tuple((i, c) for i, c in enumerate(_divmod_monic([0] * k + [1], phi)[1]) if c)
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


def _kernel_basis(matrix, p):
    """Free columns and kernel basis of a square matrix over F_p, each vector 1
    at its own free column and 0 at the others, from its reduced row echelon
    form."""
    s = len(matrix)
    rows = [list(row) for row in matrix]
    pivots = []
    for col in range(s):
        rank = len(pivots)
        pivot = next((r for r in range(rank, s) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(s):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        if len(pivots) == s:
            break
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
    """det(xI - M) as ascending coefficients over F_p, monic, in O(s^3), for M
    with entries reduced mod p.

    M is first reduced by similarity to upper Hessenberg form H (zero below the
    subdiagonal), which keeps the characteristic polynomial.  For each column
    m - 1 a nonzero entry at or below row m is swapped into row m (rows and
    columns both, a similarity), and each row i > m loses u = H[i][m-1] /
    H[m][m-1] times row m while column m gains u times column i; a column with
    nothing to clear is skipped.  Then the leading principal minors of xI - H
    satisfy, expanding along the last column,

        P_m = (x - h_mm) P_(m-1) - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) P_(i-1),

    with P_0 = 1 and det(xI - M) = P_s.  The only divisions are by pivots, so
    the reduction holds over F_p for every prime p.
    """
    s = len(matrix)
    h = [list(row) for row in matrix]
    for m in range(1, s - 1):
        pivot = next((i for i in range(m, s) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        row_m = h[m]
        inv = pow(row_m[m - 1], p - 2, p)
        for i in range(m + 1, s):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(a - u * b) % p for a, b in zip(h[i], row_m)]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    minors = [[1]]
    for m in range(s):
        prev = minors[m]
        diag = h[m][m]
        poly = [0] + prev  # x P_(m-1), then the rest of the expansion
        for k, c in enumerate(prev):
            poly[k] -= diag * c
        chain = 1
        for i in range(m - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            f = chain * h[i][m]
            for k, c in enumerate(minors[i]):
                poly[k] -= f * c
        minors.append([c % p for c in poly])
    return minors[s]


def _poly_roots_mod(coeffs, p):
    """The distinct roots in F_p of a monic polynomial (ascending coefficients,
    reduced mod p), ascending.

    The scan tries x = 0, 1, ... in turn; each root found is divided out by
    synthetic division as often as it divides, so later values are taken on a
    polynomial of lower degree.  Once one linear factor c_0 + x is left, its
    root -c_0 is the last one: every smaller x was tried on a multiple of it,
    so it lies above the scan and is new.  A constant left ends the scan.
    """
    poly = coeffs
    roots = []
    for x in range(p):
        if len(poly) <= 2:
            break
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc:
            continue
        roots.append(x)
        while True:  # divide by (y - x); the value at x comes out as the remainder
            quotient = []
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
                quotient.append(acc)
            if acc:
                break
            quotient.pop()
            poly = quotient[::-1]
    if len(poly) == 2:
        roots.append(-poly[0] % p)
    return roots


def _primitive_root(p):
    factors = _prime_factors(p - 1)
    for g in range(1, p):
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

    # e, the exponent of G: the lcm of the representatives' orders
    e = lcm(*map(len, data.powers))
    p = dixon_prime(group.order, e)

    # deterministic refinement into common eigenspaces; every basis is the
    # identity at its pivot coordinates, so the matrix of M_i on its span is
    # the images read at the pivots.  The first split is of the full space in
    # the unit basis: its matrix is M_i itself and its kernel vectors are
    # already the eigenvectors.
    unit = [[int(j == k) for j in range(r)] for k in range(r)]
    spaces = [(unit, range(r))]
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
            if basis is unit:  # every a_ijk <= |G| < p is already reduced
                c_small = data.a_ijk[i]
            else:
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
                free, eigenspace = _kernel_basis(shifted, p)
                if basis is not unit:  # from the span's coordinates to the full space
                    eigenspace = [_apply(basis_rows, vec, p) for vec in eigenspace]
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
    for o in set(map(len, data.powers)):
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
        for k, walk in enumerate(data.powers):
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
    return _divmod_monic([-1] + [0] * (e - 1) + [1], cyclotomic_polynomial(e))[0]


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
    is unpacked and nothing is reduced mod Phi_e.  verify_orthogonality passes
    one closed-form bound for all its relations, |G| s N^2 + |G|.
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
    total is a sum of int products: a packed element T of Z[x]/(x^e - 1).  With
    N the largest l1 norm of a value's coordinates and s the number of rows,
    each product a_k * conj(b_k) has l1 norm at most N^2, so a row total is at
    most sum_k |C_k| N^2 = |G| N^2 and a column total at most |C_k| s N^2.
    With the wanted |G| or 0 added, one closed-form bound |G| s N^2 + |G|
    holds for every |T - want|_1 (its first |G| is taken as sum_k |C_k|, so
    that it holds for any class sizes).  The class-size-scaled row values and
    the column values are multiplied once by the packed cofactor
    Psi_e = (x^e - 1) / Phi_e, so each total comes out as T * Psi_e, and
    T = want in Z[zeta] exactly when it is want * Psi_e modulo 2^(width*e) - 1
    (_relation, which proves the width from the bound and |Psi_e|_inf).  Row
    pairs are tried before column pairs, each in ascending order, and the
    first failing pair is named.
    """
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


# -- Frobenius-type counting sums -------------------------------------------------


@dataclass(frozen=True)
class FrobeniusCounts:
    """Character-sum counts for products of g commutators hitting xi.

    tuple_prediction = |G|^(2g-1) * sum_chi chi(xi)/chi(1)^(2g-1), the
    classical Frobenius solution count, summed in integers as
    sum_chi (|G|/chi(1))^(2g-1) * chi(xi) (each degree divides |G|);
    point_count = tuple_prediction / |G|, the character-formula value (an
    exact rational).
    """

    tuple_prediction: int
    point_count: Fraction


def frobenius_sums(table: CharacterTable, g: int, xi: int) -> FrobeniusCounts:
    """Evaluate the counting sums at a central element xi (an element index).

    Each chi(1) divides |G|, so the sum is sum_chi (|G|/chi(1))^(2g-1) * chi(xi)
    in ints.  A degree that does not divide |G|, an irrational sum and a
    negative one raise NonIntegralCount.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    data = table.conjugacy
    k = data.class_of[xi]
    if data.sizes[k] != 1:
        raise ValueError("xi must be central (singleton conjugacy class)")
    order = table.group.order
    total = [0] * len(table.rows[0][k])
    for row, d in zip(table.rows, table.degrees):
        if order % d:
            raise NonIntegralCount(f"degree {d} does not divide the group order {order}")
        weight = (order // d) ** (2 * g - 1)
        total = [t + weight * c for t, c in zip(total, row[k])]
    if any(total[1:]):
        raise NonIntegralCount("character sum is not a rational integer")
    if total[0] < 0:
        raise NonIntegralCount(f"tuple prediction {total[0]} is not a non-negative integer")
    return FrobeniusCounts(total[0], Fraction(total[0], order))
