"""Small matrix groups over prime fields: enumeration and brute-force counts.

Groups are fully enumerated as tuples (a, b, c, d) for 2x2 matrices over F_p,
with a multiplication table built once on demand.  A few of its rows come from
matrix products, which also check that the elements are closed; every other
row is a composition of two known rows as lists of element indices.
Everything downstream (conjugacy classes, class-multiplication coefficients,
commutator counts) works with element indices into that table.  The
coefficients a_ijk take one pass of |G| per class representative z_k, over
the x in C_i with x^-1 z_k in C_j (asserted class-constant), and the same
pass walks the powers of z_k, which give every element order.  Every group
is enumerated in full, so build_group refuses one with more than
DEFAULT_MAX_ORDER = 500 elements, a constant that admits |GL(2,5)| = 480.

The brute-force side is organized as the |G|^2 commutator distribution
c(z) = #{(A,B) : A B A^-1 B^-1 = z} followed by class-algebra convolution, so
genus g counts of products of g commutators cost O(classes^3) per genus step
instead of |G|^(2g).  The distribution is computed once per group and kept on
it, like the conjugacy data, so counts at several genera share one |G|^2 loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import CentralElementUnavailable, GroupTooLarge

DEFAULT_MAX_ORDER = 500


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _require_prime(q: int):
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")


class MatrixGroup:
    """A fully enumerated group of 2x2 matrices over F_q, q prime, with index-based tables."""

    def __init__(self, family: str, q: int, elements):
        self.family = family
        self.q = q
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        if len(self.index) != self.order:
            raise ValueError("duplicate elements")
        ident = (1, 0, 0, 1)
        if ident not in self.index:
            raise ValueError("identity missing")
        self.identity = self.index[ident]
        self._mul = None
        self._inv = None
        self._conjugacy = None
        self._commutators = None

    @property
    def mul(self):
        """Multiplication table mul[i][j] = index of elements[i] * elements[j].

        Row x lists x*b for every b.  If x = s*y, then x*b = s*(y*b), so
        row(x) is row(y) mapped through row(s): a composition of two lists at
        C speed.  The identity's row is range(n).  The first element in index
        order with no row gets one from direct matrix products and joins the
        generators; every known row is then closed under left multiplication by
        the generators, and this repeats until every row is known (two direct
        rows for SL(2,q), q <= 7, and GL(2,3); three for GL(2,5)).  Closure is
        still checked: only direct rows look up products, and a composed row
        is a composition of checked rows, so an element set that is not closed
        fails on a direct row.
        """
        if self._mul is None:
            n = self.order
            rows = [None] * n
            rows[self.identity] = list(range(n))
            generators = []
            for first in range(n):
                if rows[first] is not None:
                    continue
                rows[first] = list(self._direct_row(self.elements[first]))
                generators.append(rows[first])
                todo = [y for y, row in enumerate(rows) if row is not None]
                while todo:
                    y = todo.pop()
                    for row_s in generators:
                        x = row_s[y]
                        if rows[x] is None:
                            rows[x] = list(map(row_s.__getitem__, rows[y]))
                            todo.append(x)
            self._mul = rows
        return self._mul

    def _direct_row(self, a):
        """Indices of a*b for every element b, by matrix products over F_q."""
        p = self.q
        idx = self.index
        a0, a1, a2, a3 = a
        for b in self.elements:
            b0, b1, b2, b3 = b
            key = (
                (a0 * b0 + a1 * b2) % p,
                (a0 * b1 + a1 * b3) % p,
                (a2 * b0 + a3 * b2) % p,
                (a2 * b1 + a3 * b3) % p,
            )
            i = idx.get(key)
            if i is None:
                raise ValueError(
                    f"elements of {self.family} are not closed: {a} * {b} = {key} is missing"
                )
            yield i

    @property
    def inv(self):
        """inv[x] = index of elements[x]^-1: where the identity stands in row x of mul."""
        if self._inv is None:
            self._inv = [row.index(self.identity) for row in self.mul]
        return self._inv

    def element_order(self, i: int) -> int:
        data = self.conjugacy()
        return len(data.powers[data.class_of[i]])

    def center(self):
        """Indices of central elements (the singleton conjugacy classes)."""
        data = self.conjugacy()
        return tuple(
            cls[0] for cls in data.classes if len(cls) == 1
        )

    def central_of_order(self, n: int) -> int:
        """Index of a central element of multiplicative order n."""
        center = self.center()
        orders = [self.element_order(i) for i in center]
        if n in orders:
            return center[orders.index(n)]
        raise CentralElementUnavailable(
            f"central element of order {n} unavailable in {self.family}(2,{self.q})"
            f" (central elements have orders {', '.join(map(str, sorted(set(orders))))})"
        )

    def conjugacy(self) -> "ConjugacyData":
        if self._conjugacy is None:
            self._conjugacy = _conjugacy_classes(self)
        return self._conjugacy

    def __repr__(self):
        return f"MatrixGroup({self.family}, dim=2, q={self.q}, order={self.order})"


def build_group(family: str, dim: int, q: int) -> MatrixGroup:
    """Enumerate GL(2,q) or SL(2,q) for prime q, up to DEFAULT_MAX_ORDER elements.

    The order bound comes before the primality test, whose trial division
    takes about sqrt(q) steps.
    """
    family = family.upper()
    if family not in ("GL", "SL"):
        raise ValueError(f"family must be GL or SL, got {family!r}")
    if dim != 2:
        raise ValueError("only 2x2 matrix groups are enumerated here")
    expected = q * (q * q - 1) * (q - 1 if family == "GL" else 1)
    # below 2 this is no group order, and the primality test refuses q
    if q > 1 and expected > DEFAULT_MAX_ORDER:
        raise GroupTooLarge(
            f"|{family}(2,{q})| = {expected} exceeds the bound {DEFAULT_MAX_ORDER}"
        )
    _require_prime(q)
    want = 1 if family == "SL" else None
    elements = []
    for a, b, c, d in product(range(q), repeat=4):
        det = (a * d - b * c) % q
        if det == 0:
            continue
        if want is not None and det != want:
            continue
        elements.append((a, b, c, d))
    group = MatrixGroup(family, q, elements)
    assert group.order == expected
    return group


def diagonal_group(q: int) -> MatrixGroup:
    """The abelian fixture: diagonal matrices in GL(2,q), order (q-1)^2."""
    _require_prime(q)
    elements = [(a, 0, 0, d) for a in range(1, q) for d in range(1, q)]
    return MatrixGroup("DIAG", q, elements)


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes, the element->class map, the coefficients a_ijk and
    the power walks of the class representatives.

    a_ijk = #{(x, y) in C_i x C_j : x*y = z_k} for the fixed representative
    z_k, counted at z_k alone: each x has the one partner y = x^-1 z_k.  The
    counts are asserted class-constant through sum_k a_ijk |C_k| = |C_i| |C_j|.
    powers[k] lists the classes of z_k^0, z_k^1, ... up to the last power
    before the identity, so its length is the order of z_k.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    a_ijk: tuple  # a_ijk[i][j][k]
    inverse_class: tuple[int, ...]
    identity_class: int
    powers: tuple[tuple[int, ...], ...]


def _conjugacy_classes(group: MatrixGroup) -> ConjugacyData:
    mul = group.mul
    inv = group.inv
    n = group.order
    class_of = [-1] * n
    classes = []
    for i in range(n):
        if class_of[i] >= 0:
            continue
        orbit = set()
        for t in range(n):
            orbit.add(mul[mul[t][i]][inv[t]])
        k = len(classes)
        for x in orbit:
            class_of[x] = k
        classes.append(tuple(sorted(orbit)))
    r = len(classes)
    sizes = tuple(len(c) for c in classes)
    assert sum(sizes) == n
    reps = tuple(c[0] for c in classes)
    ident = class_of[group.identity]
    a_ijk = [[[0] * r for _ in range(r)] for _ in range(r)]
    powers = []
    for k, z in enumerate(reps):
        for cx, xi in zip(class_of, inv):  # x in C_cx pairs with y = x^-1 z
            a_ijk[cx][class_of[mul[xi][z]]][k] += 1
        walk = [ident]
        x = z
        while x != group.identity:
            walk.append(class_of[x])
            x = mul[x][z]
        powers.append(tuple(walk))
    for i in range(r):
        for j in range(r):
            total = sum(a * s for a, s in zip(a_ijk[i][j], sizes))
            assert total == sizes[i] * sizes[j], "class products not class-constant"
    return ConjugacyData(
        classes=tuple(classes),
        class_of=tuple(class_of),
        representatives=reps,
        sizes=sizes,
        a_ijk=tuple(tuple(map(tuple, plane)) for plane in a_ijk),
        inverse_class=tuple(class_of[inv[rep]] for rep in reps),
        identity_class=ident,
        powers=tuple(powers),
    )


@dataclass(frozen=True)
class ClassFunction:
    """Integer class function given by one value per conjugacy class."""

    group: MatrixGroup
    values: tuple[int, ...]

    def at_element(self, i: int) -> int:
        return self.values[self.group.conjugacy().class_of[i]]


def commutator_distribution(group: MatrixGroup) -> ClassFunction:
    """c(z) = #{(A, B) in G^2 : [A, B] = z}, computed once per group."""
    # Only the values are kept: a ClassFunction stored on its own group would
    # be a reference cycle, holding the group's tables until a cyclic collection.
    if group._commutators is None:
        group._commutators = _commutator_values(group)
    return ClassFunction(group, group._commutators)


def _commutator_values(group: MatrixGroup) -> tuple[int, ...]:
    """The |G|^2 loop behind commutator_distribution, asserted constant on classes."""
    mul = group.mul
    inv = group.inv
    n = group.order
    counts = [0] * n
    for a in range(n):
        row_a = mul[a]
        ai = inv[a]
        for b in range(n):
            t = mul[row_a[b]][ai]
            counts[mul[t][inv[b]]] += 1
    data = group.conjugacy()
    values = []
    for cls in data.classes:
        v = counts[cls[0]]
        for x in cls[1:]:
            assert counts[x] == v, "commutator distribution not a class function"
        values.append(v)
    assert sum(v * s for v, s in zip(values, data.sizes)) == n * n
    return tuple(values)


def convolve_class_functions(f: ClassFunction, h: ClassFunction) -> ClassFunction:
    """(f * h)(z) = sum over z1 z2 = z of f(z1) h(z2), via the a_ijk tensor."""
    if f.group is not h.group:
        raise ValueError("class functions over different groups")
    data = f.group.conjugacy()
    r = len(data.classes)
    a = data.a_ijk
    out = [0] * r
    for i in range(r):
        fi = f.values[i]
        if not fi:
            continue
        ai = a[i]
        for j in range(r):
            hj = h.values[j]
            if not hj:
                continue
            c = fi * hj
            line = ai[j]
            for k in range(r):
                if line[k]:
                    out[k] += c * line[k]
    return ClassFunction(f.group, tuple(out))


def tuple_count(group: MatrixGroup, g: int, xi: int) -> int:
    """#{(A_1,B_1,...,A_g,B_g) : [A_1,B_1]...[A_g,B_g] = xi} by convolution."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    c = commutator_distribution(group)
    acc = c
    for _ in range(g - 1):
        acc = convolve_class_functions(acc, c)
    return acc.at_element(xi)
