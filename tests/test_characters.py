"""Cyclotomic arithmetic, Dixon character tables, and Frobenius sums."""

import dataclasses
import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import charvar.characters
from charvar.characters import (
    _charpoly,
    _from_root_multiplicities,
    _pack,
    _poly_roots_mod,
    _relation,
    character_table,
    cyclotomic_polynomial,
    dixon_prime,
    frobenius_sums,
    verify_orthogonality,
)
from charvar.errors import LiftFailure, NonIntegralCount
from charvar.groups import (
    MatrixGroup,
    _is_prime,
    build_group,
    commutator_distribution,
    diagonal_group,
    tuple_count,
)
from charvar.invariants import InvariantKind, compute_invariant, document_bytes
from oracles import (
    cyc_times_conjugate,
    cyclotomic,
    faddeev_leverrier_charpoly,
    folded_times_conjugate,
    from_root_multiplicities,
    reduce_mod_cyclotomic,
    reference_verify_orthogonality,
    roots_by_full_scan,
    table_document,
    zeta_power,
)


class TestCyclotomic:
    def test_known_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_matches_the_moebius_product(self):
        for e in range(1, 61):
            assert cyclotomic_polynomial(e) == cyclotomic(e), e

    def test_fourth_root(self):
        i = zeta_power(4, 1)
        assert i == (0, 1)
        assert cyc_times_conjugate(4, i, zeta_power(4, -1)) == (-1, 0)  # i * i
        assert cyc_times_conjugate(4, zeta_power(4, 0), i) == (0, -1)  # conj(i)

    def test_third_roots_sum_to_zero(self):
        roots = [zeta_power(3, k) for k in range(3)]
        assert [sum(c) for c in zip(*roots)] == [0, 0]

    def test_rational_integer_detection(self):
        z6 = zeta_power(6, 1)
        conj = cyc_times_conjugate(6, zeta_power(6, 0), z6)
        # z6 + conj(z6) = 1 for the primitive 6th root: rational, as coordinate 1 is 0
        assert tuple(a + b for a, b in zip(z6, conj)) == (1, 0)

    def test_dixon_prime(self):
        assert dixon_prime(24, 12) == 61
        assert dixon_prime(48, 24) == 97
        assert dixon_prime(120, 60) == 241
        assert dixon_prime(480, 120) == 1201

    def test_primitive_root_has_order_p_minus_1(self):
        for p in filter(_is_prime, range(2000)):
            g = charvar.characters._primitive_root(p)
            assert len({pow(g, k, p) for k in range(1, p)}) == p - 1, p


@pytest.fixture(scope="module")
def sl23():
    return build_group("SL", 2, 3)


@pytest.fixture(scope="module")
def gl23():
    return build_group("GL", 2, 3)


@pytest.fixture(scope="module")
def sl25():
    return build_group("SL", 2, 5)


@pytest.fixture(scope="module")
def tables(sl23, gl23, sl25):
    return {
        "sl23": character_table(sl23),
        "gl23": character_table(gl23),
        "sl25": character_table(sl25),
    }


class TestCharacterTable:
    def test_order_two_cyclic_fixture(self):
        c2 = MatrixGroup("C2", 3, [(1, 0, 0, 1), (2, 0, 0, 2)])
        table = character_table(c2)
        ident = table.conjugacy.identity_class
        other = 1 - ident
        rows = {(row[ident], row[other]) for row in table.rows}
        assert rows == {((1,), (1,)), ((1,), (-1,))}

    def test_sl23_degrees(self, tables):
        assert sorted(tables["sl23"].degrees) == [1, 1, 1, 2, 2, 2, 3]

    def test_gl23_degrees(self, tables):
        table = tables["gl23"]
        assert table.num_classes == 8
        assert sum(d * d for d in table.degrees) == 48

    def test_sl25_degrees(self, tables):
        assert sorted(tables["sl25"].degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]

    def test_orthogonality_is_verified_exactly(self, tables):
        for table in tables.values():
            verify_orthogonality(table)  # raises on failure

    def test_degrees_agree_with_identity_column(self, tables):
        for table in tables.values():
            ident = table.conjugacy.identity_class
            for row, d in zip(table.rows, table.degrees):
                assert row[ident] == (d,) + (0,) * (len(row[ident]) - 1)

    def test_json_document_shape(self, tables):
        doc = table_document(tables["sl23"])
        assert doc["group"] == {"family": "SL", "q": 3, "order": 24}
        assert len(doc["classes"]) == len(doc["rows"]) == 7
        assert doc["classes"][0]["size"] >= 1
        assert all(isinstance(v, list) for row in doc["rows"] for v in row)
        assert doc["cyclotomic_order"] == 12


class TestFrobeniusSums:
    def test_matches_brute_force_distribution(self, sl23, tables):
        c = commutator_distribution(sl23)
        minus_id = sl23.central_of_order(2)
        sums = frobenius_sums(tables["sl23"], 1, minus_id)
        assert sums.tuple_prediction == c.at_element(minus_id) == 24

    @pytest.mark.parametrize("g", [1, 2])
    def test_matches_brute_force_everywhere(self, g, sl23, gl23, sl25, tables):
        for group, table in ((sl23, tables["sl23"]), (gl23, tables["gl23"]), (sl25, tables["sl25"])):
            for xi in group.center():
                brute = tuple_count(group, g, xi)
                sums = frobenius_sums(table, g, xi)
                assert sums.tuple_prediction == brute
                assert sums.point_count == Fraction(brute, group.order)

    @pytest.mark.parametrize("g", [1, 2])
    def test_abelian_fixture(self, g):
        diag = diagonal_group(3)
        table = character_table(diag)
        assert frobenius_sums(table, g, diag.identity).tuple_prediction == diag.order ** (2 * g)
        non_identity = next(i for i in diag.center() if i != diag.identity)
        assert frobenius_sums(table, g, non_identity).tuple_prediction == 0

    def test_non_central_element_rejected(self, sl23, tables):
        data = sl23.conjugacy()
        big = next(k for k in range(len(data.classes)) if data.sizes[k] > 1)
        with pytest.raises(ValueError):
            frobenius_sums(tables["sl23"], 1, data.representatives[big])

    # Adding to a rational coordinate alone changes the prediction by a
    # multiple of (|G|/d)^(2g-1), still an integer: the irrational coordinate 1
    # and a large negative shift are the controls that must fail.
    @pytest.mark.parametrize(
        "coordinate,delta,g,message",
        [
            (1, 1, 1, "character sum is not a rational integer"),
            (0, -1000, 2, "tuple prediction -1726730880 is not a non-negative integer"),
        ],
        ids=["irrational", "negative"],
    )
    def test_non_integral_count_is_raised(self, tables, coordinate, delta, g, message):
        table = tables["sl25"]
        xi = table.group.central_of_order(2)
        k = table.conjugacy.class_of[xi]
        rows = [list(row) for row in table.rows]
        value = list(rows[0][k])  # the trivial character at xi
        value[coordinate] += delta
        rows[0][k] = tuple(value)
        bad = dataclasses.replace(table, rows=tuple(map(tuple, rows)))
        with pytest.raises(NonIntegralCount) as exc:
            frobenius_sums(bad, g, xi)
        assert str(exc.value) == message

    def test_a_degree_that_does_not_divide_the_order_is_raised(self, tables):
        table = tables["sl25"]
        degrees = list(table.degrees)
        degrees[1] = 7
        bad = dataclasses.replace(table, degrees=tuple(degrees))
        with pytest.raises(NonIntegralCount) as exc:
            frobenius_sums(bad, 1, table.group.identity)
        assert str(exc.value) == "degree 7 does not divide the group order 120"


def _sl2_point_count(q, g, e2, sign=1, q_power=0, twos=-1):
    """E_2(q) + (2^(2g) - 1) (eps/2) q^(2g-2) ((q-1)^(2g-2) - (q+1)^(2g-2)),
    eps = (-1)^((q-1)/2); sign, q_power and twos move one factor each, for the
    controls."""
    eps = sign * (-1) ** ((q - 1) // 2)
    return e2 + (2 ** (2 * g) + twos) * Fraction(eps, 2) * q ** (2 * g - 2 + q_power) * (
        (q - 1) ** (2 * g - 2) - (q + 1) ** (2 * g - 2)
    )


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 5, 7])
def test_sl2_point_count_is_e2_plus_a_closed_form(q, g):
    """The character-formula count of SL(2,q) at -I is E_2(q) plus a closed
    form that vanishes at g = 1, and the brute count agrees; at g >= 2 a
    flipped sign, q^(2g-1) for q^(2g-2) and 2^(2g) for 2^(2g) - 1 each fail."""
    group = build_group("SL", 2, q)
    xi = group.central_of_order(2)
    e2 = compute_invariant(InvariantKind.E, 2, g).polynomial.specialize({"q": q})
    count = frobenius_sums(character_table(group), g, xi).point_count
    assert count == _sl2_point_count(q, g, e2)
    assert tuple_count(group, g, xi) == count * group.order
    controls = [
        _sl2_point_count(q, g, e2, sign=-1),
        _sl2_point_count(q, g, e2, q_power=1),
        _sl2_point_count(q, g, e2, twos=0),
    ]
    assert all(c != count for c in controls) == (g >= 2)


@pytest.mark.parametrize("q", [5, 7])
def test_abelian_table_through_a_long_refinement(q):
    # abelian, so r = |G|: the refinement runs over many class matrices
    diag = diagonal_group(q)
    table = character_table(diag)
    assert table.num_classes == diag.order == (q - 1) ** 2
    assert table.degrees == (1,) * diag.order
    for g in (1, 2):
        for xi in diag.center():
            assert tuple_count(diag, g, xi) == frobenius_sums(table, g, xi).tuple_prediction


class TestStretchTarget:
    def test_gl25_table_and_counts(self):
        gl25 = build_group("GL", 2, 5)
        assert gl25.order == 480
        table = character_table(gl25)
        assert table.num_classes == 24
        # 4 linear, 10 of degree q-1, 4 of degree q, 6 of degree q+1
        assert sorted(table.degrees) == [1] * 4 + [4] * 10 + [5] * 4 + [6] * 6
        for g in (1, 2):
            for xi in gl25.center():
                assert tuple_count(gl25, g, xi) == frobenius_sums(
                    table, g, xi
                ).tuple_prediction


# SHA-256 of the canonical JSON table document of each group, so a change to
# the Dixon splitting (the characteristic polynomial, the eigenspaces, the lift)
# must reproduce every table byte for byte.
TABLE_DIGESTS = {
    ("SL", 3): "fb5a788cb88a4cce86ac1db13279a02b12d2f8c0a5a7a01af0187986d67e1860",
    ("GL", 3): "0cb8f74844204f7462feb6c9fef9d56b7bd23b9db87f250735810baec3a046d5",
    ("SL", 5): "bd7234a02597895bdfdf5f31eb31fc43efbfe04c77ae9eb7a6d63a8b74c0eac1",
    ("GL", 5): "089bae970f8864bb365e5ac96abc71d053ab398a933fc512e0f3bb9bf5c5e0f5",
    ("SL", 7): "c977dca7b99949cb7d8748d6ba4c4ab0e0559c66d758d1a83035f40decee7e3b",
}


@pytest.mark.parametrize("family,q", sorted(TABLE_DIGESTS))
def test_table_document_matches_golden_digest(family, q):
    table = character_table(build_group(family, 2, q))
    digest = hashlib.sha256(document_bytes(table_document(table))).hexdigest()
    assert digest == TABLE_DIGESTS[family, q]


# -- the packed orthogonality check ------------------------------------------------


def _reference_total(e, sizes, a_values, b_values):
    """sum_k s_k * a_k * conj(b_k), product by product: the oracle."""
    total = [0] * (len(cyclotomic_polynomial(e)) - 1)
    for s, a, b in zip(sizes, a_values, b_values):
        total = [t + s * c for t, c in zip(total, cyc_times_conjugate(e, a, b))]
    return tuple(total)


_ORDERS = [1, 2, 3, 4, 6, 8, 12, 24, 60, 120]


@pytest.mark.parametrize("e", _ORDERS)
def test_packed_total_matches_cyclotomic_arithmetic(e):
    """The packed total times Psi_e holds against the reference total, and
    against it plus any multiple of Phi_e, and against no reference total off
    by one in a single coordinate."""
    rng = random.Random(e)
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    negative_totals = 0
    for trial in range(100):
        n = rng.randint(1, 8)
        sizes = [rng.randint(1, 200) for _ in range(n)]
        # every fourth trial has a <= 0 <= b, so no slot of its total is positive
        a_range, b_range = ((-9, 9), (-9, 9)) if trial % 4 else ((-9, 0), (0, 9))
        a_values = [tuple(rng.randint(*a_range) for _ in range(deg)) for _ in range(n)]
        b_values = [tuple(rng.randint(*b_range) for _ in range(deg)) for _ in range(n)]
        want = _reference_total(e, sizes, a_values, b_values)
        # the l1 norm of T - want, with room for a unit off in one coordinate
        bound = sum(
            s * sum(map(abs, a)) * sum(map(abs, b))
            for s, a, b in zip(sizes, a_values, b_values)
        ) + sum(map(abs, want)) + 1
        width, psi, holds = _relation(e, bound)
        total = sum(
            s * _pack(a, width, e) * psi * _pack(b, width, e, -1)
            for s, a, b in zip(sizes, a_values, b_values)
        )
        negative_totals += total < 0  # the top nonzero slot decodes negative
        assert holds(total, _pack(want, width, e))
        multiple = [rng.randint(-9, 9) for _ in range(e - deg)]
        shifted = [sum(m * phi[k - i] for i, m in enumerate(multiple) if 0 <= k - i <= deg)
                   for k in range(e)]
        assert holds(total, _pack(want, width, e) + _pack(shifted, width, e))
        for i in range(deg):
            for unit in (1, -1):
                off = want[:i] + (want[i] + unit,) + want[i + 1:]
                assert not holds(total, _pack(off, width, e))
    assert negative_totals >= 25


@pytest.mark.parametrize("e", _ORDERS)
def test_lifted_value_matches_the_reduced_sum(e):
    """Summing precomputed reduced roots of unity equals reducing the summed
    powers, for every element order o | e."""
    rng = random.Random(e)
    for o in (o for o in range(1, e + 1) if e % o == 0):
        for _ in range(20):
            mults = [rng.choice((0, 0, 1, 2, 7)) for _ in range(o)]
            got = _from_root_multiplicities(e, e // o, mults)
            assert got == from_root_multiplicities(e, e // o, mults)


def test_raised_coordinate_names_the_first_failing_pair(tables):
    table = tables["sl25"]
    rows = [list(row) for row in table.rows]
    value = rows[3][2]
    rows[3][2] = (value[0] + 1,) + value[1:]
    with pytest.raises(LiftFailure) as exc:
        verify_orthogonality(dataclasses.replace(table, rows=tuple(map(tuple, rows))))
    assert str(exc.value) == "row orthogonality fails for characters 0, 3"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[1:], "table shape fails: 9 classes, 8 rows, row lengths [9]"),
        (lambda rows: rows[:-1], "table shape fails: 9 classes, 8 rows, row lengths [9]"),
        (lambda rows: rows + rows[-1:], "row orthogonality fails for characters 8, 9"),
    ],
    ids=["first-dropped", "last-dropped", "last-duplicated"],
)
def test_a_missing_or_repeated_row_names_the_failing_pair(tables, edit, message):
    """The row pairs run over the rows, not the classes: a dropped row leaves
    the rows orthogonal and fails the shape check after them, a repeated row
    fails its pair first."""
    table = tables["sl25"]
    with pytest.raises(LiftFailure) as exc:
        verify_orthogonality(dataclasses.replace(table, rows=edit(table.rows)))
    assert str(exc.value) == message


@pytest.mark.parametrize("family,q", [("SL", 3), ("GL", 3), ("SL", 5), ("GL", 5), ("DIAG", 5)])
def test_every_relation_is_within_the_closed_form_bound(monkeypatch, family, q):
    """The width is proven from sum_k |C_k| N^2 + |G|, and every row total T,
    summed unreduced in Z[x]/(x^e - 1) as the packed check sums it, has
    |T - want|_1 within it, and reduces to want modulo Phi_e."""
    group = diagonal_group(q) if family == "DIAG" else build_group(family, 2, q)
    table = character_table(group)
    bounds = []
    relation = charvar.characters._relation

    def recorded(e, bound):
        bounds.append(bound)
        return relation(e, bound)

    monkeypatch.setattr(charvar.characters, "_relation", recorded)
    verify_orthogonality(table)
    e, order, sizes, rows = table.cyclotomic_order, group.order, table.conjugacy.sizes, table.rows
    n = max(sum(map(abs, v)) for row in rows for v in row)
    bound = sum(sizes) * n * n + order
    assert bounds == [bound]

    def within(products, want):
        total = [sum(c) for c in zip(*products)]
        total[0] -= want
        assert sum(map(abs, total)) <= bound
        assert not any(reduce_mod_cyclotomic(total, e))

    for a, row_a in enumerate(rows):
        for b in range(a, len(rows)):
            within(
                [[s * c for c in folded_times_conjugate(e, x, y)]
                 for s, x, y in zip(sizes, row_a, rows[b])],
                order if a == b else 0,
            )


def test_changed_class_size_is_rejected(tables):
    table = tables["sl25"]
    data = table.conjugacy
    sizes = list(data.sizes)
    k = next(k for k in range(len(sizes)) if k != data.identity_class)
    sizes[k] += 1
    bad = dataclasses.replace(table, conjugacy=dataclasses.replace(data, sizes=tuple(sizes)))
    with pytest.raises(LiftFailure, match="orthogonality fails"):
        verify_orthogonality(bad)


@pytest.mark.parametrize(
    "family,q", [*sorted(TABLE_DIGESTS), ("DIAG", 2), ("DIAG", 3), ("SL", 2)]
)
def test_true_tables_pass(family, q):
    group = diagonal_group(q) if family == "DIAG" else build_group(family, 2, q)
    verify_orthogonality(character_table(group))  # raises on failure


# -- the row relations and the shape against the two-relation reference ------------

_VERIFIED = [("GL", 2), ("GL", 3), ("GL", 5), ("SL", 2), ("SL", 3), ("SL", 5), ("SL", 7),
             ("DIAG", 2), ("DIAG", 3), ("DIAG", 5)]


@functools.cache
def _verified_table(family, q):
    return character_table(diagonal_group(q) if family == "DIAG" else build_group(family, 2, q))


def _with(table, rows, sizes):
    data = dataclasses.replace(table.conjugacy, sizes=tuple(sizes))
    return dataclasses.replace(table, conjugacy=data, rows=tuple(map(tuple, rows)))


def _one_value_short(table, a, k):
    """The table with class k moved last, sizes included, and row a's last
    value, its value at class k, dropped."""
    order = [c for c in range(table.num_classes) if c != k] + [k]
    rows = [[row[c] for c in order] for row in table.rows]
    del rows[a][-1]
    return _with(table, rows, [table.conjugacy.sizes[c] for c in order])


_EDITS = ["coordinate", "size", "drop-row", "repeat-row", "negate-row", "root-row",
          "swap-rows", "swap-classes", "swap-classes-and-sizes", "short-row"]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_edit_fails_exactly_when_the_reference_fails(data):
    """A table of every group build_group admits, and of diagonal_group(2, 3,
    5), with one edit: verify_orthogonality raises LiftFailure exactly when
    the row-and-column reference raises, LiftFailure or IndexError, and a
    failing row pair is named alike.  A square table whose rows pass has the
    column relations too, so the shape check is all that replaces them."""
    table = _verified_table(*data.draw(st.sampled_from(_VERIFIED)))
    rows = [list(row) for row in table.rows]
    sizes = list(table.conjugacy.sizes)
    r, e = len(rows), table.cyclotomic_order
    a, b, k, l = (data.draw(st.integers(0, r - 1)) for _ in range(4))
    edit = data.draw(st.sampled_from(_EDITS))
    if edit == "coordinate":
        value = list(rows[a][k])
        value[data.draw(st.integers(0, len(value) - 1))] += data.draw(st.sampled_from([1, -1]))
        rows[a][k] = tuple(value)
    elif edit == "size":
        sizes[k] += data.draw(st.sampled_from([1, -1]))
    elif edit == "drop-row":
        del rows[a]
    elif edit == "repeat-row":
        rows.insert(b, rows[a])
    elif edit == "negate-row":
        rows[a] = [tuple(-c for c in v) for v in rows[a]]
    elif edit == "root-row":  # times zeta^j, as v * conj(zeta^-j)
        root = zeta_power(e, -data.draw(st.integers(1, e)))
        rows[a] = [cyc_times_conjugate(e, v, root) for v in rows[a]]
    elif edit == "swap-rows":
        rows[a], rows[b] = rows[b], rows[a]
    elif edit.startswith("swap-classes"):
        for row in rows:
            row[k], row[l] = row[l], row[k]
        if edit == "swap-classes-and-sizes":
            sizes[k], sizes[l] = sizes[l], sizes[k]
    bad = _one_value_short(table, a, k) if edit == "short-row" else _with(table, rows, sizes)
    assume(any(bad.rows))  # the reference's max() over no values raises ValueError
    try:
        reference_verify_orthogonality(bad)
    except (LiftFailure, IndexError) as exc:
        with pytest.raises(LiftFailure) as got:
            verify_orthogonality(bad)
        if str(exc).startswith("row orthogonality"):
            assert str(got.value) == str(exc)
    else:
        verify_orthogonality(bad)


@pytest.mark.parametrize("family,q", [("SL", 3), ("GL", 3), ("SL", 5), ("SL", 7), ("GL", 5)])
def test_a_row_one_value_short_fails_the_shape_check(family, q):
    """The classes reordered, sizes included, so that a row ends in a 0, and
    that 0 dropped: every row relation still holds, and the reference, which
    reads the columns by position, runs off the short row."""
    table = _verified_table(family, q)
    r = table.num_classes
    a, k = next((a, k) for a, row in enumerate(table.rows) for k, v in enumerate(row) if not any(v))
    bad = _one_value_short(table, a, k)
    with pytest.raises(IndexError):
        reference_verify_orthogonality(bad)
    with pytest.raises(LiftFailure) as exc:
        verify_orthogonality(bad)
    assert str(exc.value) == f"table shape fails: {r} classes, {r} rows, row lengths [{r - 1}, {r}]"


def test_a_table_with_no_rows_fails_the_shape_check(tables):
    table = tables["sl23"]
    with pytest.raises(LiftFailure) as exc:
        verify_orthogonality(dataclasses.replace(table, rows=()))
    assert str(exc.value) == "table shape fails: 7 classes, 0 rows, row lengths []"


@pytest.mark.parametrize(
    "root, message",
    [
        # w = 1: every z^(-js) is 1, so each m_j counts the eigenvalue 1 alone
        (1, "multiplicities sum to 0, degree 2"),
        # w = 0: for j > 0 only s = 0 survives, so m_j = d/o mod p
        (0, "multiplicity 31 exceeds degree 2 on class 0"),
    ],
)
def test_a_wrong_root_of_unity_fails_the_lift(monkeypatch, sl23, root, message):
    monkeypatch.setattr(charvar.characters, "_primitive_root", lambda p: root)
    with pytest.raises(LiftFailure) as exc:
        character_table(sl23)
    assert str(exc.value) == message


# -- characteristic polynomials and their roots over F_p ----------------------------

_PRIMES = (61, 97, 241)


@st.composite
def square_matrices(draw):
    """An s x s matrix over F_p, s = 1..12, dense or sparse.  Its "zero column"
    and "swap" shapes are already Hessenberg left of a column c, so the
    reduction reaches c unchanged: there every entry below the diagonal is zero
    (nothing to clear), or only one below the subdiagonal is not (a row swap)."""
    p = draw(st.sampled_from(_PRIMES))
    s = draw(st.integers(1, 12))
    density = draw(st.sampled_from([1.0, 0.5, 0.2]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(s)]
         for _ in range(s)]
    shape = draw(st.sampled_from(["plain", "zero column", "swap"]))
    if s >= 3 and shape != "plain":
        col = rng.randrange(s - 2)
        for j in range(col + 1):
            for i in range(j + 1 + (j == col), s):
                m[i][j] = 0
        if shape == "swap":
            m[rng.randrange(col + 2, s)][col] = rng.randrange(1, p)
    return m, p


@given(square_matrices())
@example(([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 61))  # a swap into row 1
@example(([[1, 2, 3], [0, 4, 5], [0, 6, 7]], 97))  # nothing to clear in column 0
@example(([[5]], 241))
@settings(max_examples=300, deadline=None)
def test_charpoly_matches_faddeev_leverrier(case):
    matrix, p = case
    assert _charpoly(matrix, p) == faddeev_leverrier_charpoly(matrix, p)


@pytest.fixture(scope="module")
def restricted_matrices():
    """Every restricted class matrix whose characteristic polynomial is taken
    while the five pinned tables are built."""
    seen = []
    real = charvar.characters._charpoly

    def spy(matrix, p):
        seen.append(([list(row) for row in matrix], p))
        return real(matrix, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charvar.characters, "_charpoly", spy)
        for family, q in sorted(TABLE_DIGESTS):
            character_table(build_group(family, 2, q))
    return seen


def test_charpoly_matches_faddeev_leverrier_on_every_restricted_matrix(restricted_matrices):
    assert len(restricted_matrices) > 20
    for matrix, p in restricted_matrices:
        poly = _charpoly(matrix, p)
        assert poly == faddeev_leverrier_charpoly(matrix, p)
        assert _poly_roots_mod(poly, p) == roots_by_full_scan(poly, p)


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@st.composite
def polynomials_with_roots(draw):
    """(coefficients, p, roots): a product of monic linear factors, with
    repeats, and optionally irreducible quadratics x^2 - a (a a non-residue)."""
    p = draw(st.sampled_from(_PRIMES))
    shape = draw(st.sampled_from(["split", "quadratic left", "no root", "linear"]))
    roots = {
        "split": st.lists(st.integers(0, p - 1), min_size=1, max_size=10),
        "quadratic left": st.lists(st.integers(0, p - 1), min_size=1, max_size=8),
        "no root": st.just([]),
        "linear": st.lists(st.integers(0, p - 1), min_size=1, max_size=1),
    }[shape]
    linear = draw(roots)
    if shape == "split":  # repeat some roots
        linear += draw(st.lists(st.sampled_from(linear), max_size=4))
    quadratics = []
    if shape in ("quadratic left", "no root"):
        non_residues = [a for a in range(1, p) if pow(a, (p - 1) // 2, p) == p - 1]
        quadratics = draw(st.lists(st.sampled_from(non_residues), min_size=1, max_size=3))
    poly = [1]
    for r in linear:
        poly = _times(poly, [-r % p, 1], p)
    for a in quadratics:
        poly = _times(poly, [-a % p, 0, 1], p)
    return poly, p, sorted(set(linear))


@given(polynomials_with_roots())
@settings(max_examples=300, deadline=None)
def test_deflating_root_scan_matches_the_full_scan(case):
    poly, p, roots = case
    assert _poly_roots_mod(poly, p) == roots_by_full_scan(poly, p) == roots
