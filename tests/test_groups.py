"""Matrix-group enumeration, conjugacy data, and brute-force counting tests."""

import weakref

import pytest

import charvar.groups
from charvar.bridge import point_count_bridge
from charvar.errors import CentralElementUnavailable, GroupTooLarge
from charvar.groups import (
    MatrixGroup,
    build_group,
    commutator_distribution,
    diagonal_group,
    tuple_count,
)
from charvar.invariants import clear_memo
from oracles import direct_mul_table, mat_inv, power_walk, reference_class_constants


@pytest.fixture(scope="module")
def sl23():
    return build_group("SL", 2, 3)


@pytest.fixture(scope="module")
def gl23():
    return build_group("GL", 2, 3)


@pytest.fixture(scope="module")
def sl25():
    return build_group("SL", 2, 5)


class TestBuildGroup:
    def test_orders(self, sl23, gl23, sl25):
        assert gl23.order == (9 - 1) * (9 - 3) == 48
        assert sl23.order == 48 // (3 - 1) == 24
        assert sl25.order == 120

    def test_group_too_large(self):
        with pytest.raises(GroupTooLarge):
            build_group("GL", 2, 7)  # order 2016 > 500
        with pytest.raises(GroupTooLarge):
            build_group("GL", 2, 11)  # order 13200 > 500

    @pytest.mark.parametrize("family, q", [("SL", 1), ("GL", 0), ("GL", -5), ("SL", 4)])
    def test_q_that_is_not_prime(self, family, q):
        with pytest.raises(ValueError, match="not prime"):
            build_group(family, 2, q)

    def test_central_elements(self, gl23):
        assert gl23.element_order(gl23.central_of_order(2)) == 2
        assert gl23.central_of_order(1) == gl23.identity
        with pytest.raises(CentralElementUnavailable):
            gl23.central_of_order(3)  # 3 does not divide q-1 = 2

    def test_sl25_center_is_plus_minus_identity(self, sl25):
        assert sorted(sl25.element_order(i) for i in sl25.center()) == [1, 2]
        with pytest.raises(CentralElementUnavailable):
            sl25.central_of_order(4)  # order-4 scalar has determinant 4 != 1

    def test_sl27_hint_names_the_orders_of_the_center(self):
        # 3 divides q-1 = 6, but the SL(2,7) center is only {±Id}
        sl27 = build_group("SL", 2, 7)
        with pytest.raises(CentralElementUnavailable) as info:
            sl27.central_of_order(3)
        assert "central elements have orders 1, 2" in str(info.value)
        assert "q-1" not in str(info.value)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            build_group("SP", 2, 3)


TABLE_GROUPS = [
    ("SL", 2), ("GL", 2), ("SL", 3), ("GL", 3), ("SL", 5), ("GL", 5),
    ("SL", 7), ("DIAG", 3), ("DIAG", 7), ("C2", 3),
]


CONSTANT_GROUPS = [("SL", 3), ("GL", 3), ("SL", 5), ("GL", 5), ("DIAG", 5)]


def _table_group(family, q):
    if family == "DIAG":
        return diagonal_group(q)
    if family == "C2":  # the order-two fixture of test_characters.py
        return MatrixGroup("C2", q, [(1, 0, 0, 1), (2, 0, 0, 2)])
    return build_group(family, 2, q)


class TestMultiplicationTable:
    @pytest.mark.parametrize("family, q", TABLE_GROUPS)
    def test_composed_rows_equal_direct_products(self, family, q):
        group = _table_group(family, q)
        assert group.mul == direct_mul_table(group)

    @pytest.mark.parametrize("family, q", TABLE_GROUPS)
    def test_inverses_read_off_the_table(self, family, q):
        group = _table_group(family, q)
        mul, inv, e = group.mul, group.inv, group.identity
        assert all(mul[x][inv[x]] == mul[inv[x]][x] == e for x in range(group.order))
        assert inv == [group.index[mat_inv(m, q)] for m in group.elements]

    def test_few_rows_are_multiplied_directly(self, monkeypatch):
        real = MatrixGroup._direct_row
        rows = []

        def counted(group, a):
            rows.append(a)
            return real(group, a)

        monkeypatch.setattr(MatrixGroup, "_direct_row", counted)
        clear_memo()  # build_group keeps its groups, tables included, until then
        build_group("GL", 2, 5).mul
        assert 1 <= len(rows) <= 3

    def test_a_set_that_is_not_closed_names_the_missing_product(self):
        group = MatrixGroup("X", 3, [(1, 0, 0, 1), (1, 1, 0, 1)])
        with pytest.raises(ValueError, match=r"\(1, 2, 0, 1\) is missing"):
            group.mul


class TestConjugacy:
    def test_class_counts(self, sl23, gl23, sl25):
        assert len(sl23.conjugacy().classes) == 7
        assert len(gl23.conjugacy().classes) == 8
        assert len(sl25.conjugacy().classes) == 9

    def test_sizes_partition_the_group(self, gl23):
        data = gl23.conjugacy()
        assert sum(data.sizes) == gl23.order

    def test_identity_class_is_singleton(self, sl23):
        data = sl23.conjugacy()
        assert data.sizes[data.identity_class] == 1
        assert data.classes[data.identity_class] == (sl23.identity,)

    def test_class_coefficient_row_sums(self, sl23):
        # sum_k a_ijk |C_k| = |C_i| |C_j|
        data = sl23.conjugacy()
        r = len(data.classes)
        for i in range(r):
            for j in range(r):
                total = sum(data.a_ijk[i][j][k] * data.sizes[k] for k in range(r))
                assert total == data.sizes[i] * data.sizes[j]

    @pytest.mark.parametrize("family, q", CONSTANT_GROUPS)
    def test_class_constants_equal_the_all_pairs_count(self, family, q):
        group = _table_group(family, q)
        assert group.conjugacy().a_ijk == reference_class_constants(group)

    @pytest.mark.parametrize("family, q", CONSTANT_GROUPS)
    def test_powers_are_the_walk_of_each_representative(self, family, q):
        group = _table_group(family, q)
        data = group.conjugacy()
        assert data.powers == tuple(power_walk(group, z) for z in data.representatives)
        for i in range(group.order):
            assert group.element_order(i) == len(power_walk(group, i))


def _sieve(n):
    """is_prime[k] for k <= n, by the sieve of Eratosthenes."""
    is_prime = [k > 1 for k in range(n + 1)]
    for p in range(2, n + 1):
        if is_prime[p]:
            for m in range(p * p, n + 1, p):
                is_prime[m] = False
    return is_prime


class TestPrimes:
    def test_prime_factors_are_the_distinct_prime_divisors(self):
        is_prime = _sieve(2000)
        for n in range(1, 2001):
            divisors = [p for p in range(2, n + 1) if is_prime[p] and n % p == 0]
            assert charvar.groups._prime_factors(n) == divisors, n

    def test_is_prime_matches_a_sieve(self):
        assert [charvar.groups._is_prime(n) for n in range(2001)] == _sieve(2000)


class TestCommutatorDistribution:
    def test_abelian_fixture(self):
        diag = diagonal_group(3)
        c = commutator_distribution(diag)
        assert c.at_element(diag.identity) == diag.order**2
        data = diag.conjugacy()
        for k, value in enumerate(c.values):
            if k != data.identity_class:
                assert value == 0

    def test_total_mass(self, sl23):
        c = commutator_distribution(sl23)
        data = sl23.conjugacy()
        assert sum(v * s for v, s in zip(c.values, data.sizes)) == 24 * 24

    def test_genus_one_count_is_the_distribution(self, sl23):
        c = commutator_distribution(sl23)
        minus_id = sl23.central_of_order(2)
        assert tuple_count(sl23, 1, minus_id) == c.at_element(minus_id)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_abelian_tuple_counts(self, g):
        diag = diagonal_group(3)
        assert tuple_count(diag, g, diag.identity) == diag.order ** (2 * g)
        non_identity = next(i for i in diag.center() if i != diag.identity)
        assert tuple_count(diag, g, non_identity) == 0


def test_commutator_distribution_is_computed_once_per_group(monkeypatch):
    real = charvar.groups._commutator_values
    runs = []

    def counted(group):
        runs.append(group)
        return real(group)

    monkeypatch.setattr(charvar.groups, "_commutator_values", counted)
    clear_memo()
    sl23 = build_group("SL", 2, 3)
    minus_id = sl23.central_of_order(2)
    # pinned from the uncached distribution, which ran the |G|^2 loop per genus
    assert [tuple_count(sl23, g, minus_id) for g in (1, 2, 3, 4)] == [
        24, 32640, 22493184, 13550714880,
    ]
    assert [tuple_count(sl23, g, sl23.identity) for g in (1, 2, 3, 4)] == [
        168, 53376, 25479168, 13980696576,
    ]
    assert runs == [sl23]
    clear_memo()
    fresh = build_group("SL", 2, 3)
    assert tuple_count(fresh, 1, minus_id) == 24
    assert runs == [sl23, fresh]


def test_a_counted_group_is_freed_without_the_cycle_collector():
    clear_memo()
    group = build_group("SL", 2, 3)
    tuple_count(group, 2, group.identity)
    ref = weakref.ref(group)
    clear_memo()
    del group
    assert ref() is None  # the kept distribution ties no reference cycle


def test_the_bridge_counts_in_one_shared_group_until_clear_memo(monkeypatch):
    real = charvar.groups._commutator_values
    runs = []

    def counted(group):
        runs.append(group)
        return real(group)

    monkeypatch.setattr(charvar.groups, "_commutator_values", counted)
    clear_memo()
    assert all(point_count_bridge(3, g).passed for g in (1, 2, 3))
    assert len(runs) == 1
    shared = runs.pop()
    assert shared is build_group("GL", 2, 3)
    ref = weakref.ref(shared)
    del shared
    clear_memo()
    assert ref() is None  # dropped, and freed without the cycle collector
    assert point_count_bridge(3, 2).passed
    assert len(runs) == 1  # enumerated and counted again


def test_build_group_keeps_one_group_per_family_and_q_until_clear_memo(monkeypatch):
    real = charvar.groups._commutator_values
    runs = []

    def counted(group):
        runs.append(group)
        return real(group)

    monkeypatch.setattr(charvar.groups, "_commutator_values", counted)
    clear_memo()
    gl23 = build_group("GL", 2, 3)
    minus_id = gl23.central_of_order(2)
    assert tuple_count(gl23, 2, minus_id) == 211200
    reports = [point_count_bridge(3, g) for g in (1, 2, 3)]
    assert all(report.passed for report in reports) and reports[1].tuples == 211200
    assert runs == [gl23]  # one |G|^2 loop for the count and the three bridges
    assert build_group("gl", 2, 3) is build_group("GL", 2, 3) is gl23
    with pytest.raises(TypeError):
        build_group("GL", 2, 3.0)  # as when nothing is kept: range(3.0) refuses it
    clear_memo()
    again = build_group("GL", 2, 3)
    assert again is not gl23
    assert tuple_count(again, 2, again.central_of_order(2)) == 211200
    assert runs == [gl23, again]


@pytest.mark.parametrize(
    "family, q, error",
    [("GL", 7, GroupTooLarge), ("GL", 4, ValueError), ("SP", 3, ValueError)],
)
def test_a_refused_group_raises_on_every_call_and_is_not_kept(family, q, error):
    clear_memo()
    for _ in range(3):
        with pytest.raises(error):
            build_group(family, 2, q)
    assert charvar.groups._groups == {}


def test_threads_share_one_group_and_its_counts(monkeypatch):
    """Eight threads ask for SL(2,5) and count at genus 2 from a cold memo."""
    import sys
    import threading
    import time

    clear_memo()
    expected_group = build_group("SL", 2, 5)
    expected = tuple_count(expected_group, 2, expected_group.central_of_order(2))
    clear_memo()
    real = charvar.groups._enumerate_group
    enumerated = []

    def slow(*key):
        group = real(*key)
        enumerated.append(group)
        time.sleep(0.05)  # every thread misses before the first one stores
        return group

    monkeypatch.setattr(charvar.groups, "_enumerate_group", slow)
    groups = [None] * 8
    counts = [None] * 8
    errors = []
    start = threading.Barrier(8)

    def work(i):
        try:
            start.wait(timeout=60)
            groups[i] = group = build_group("SL", 2, 5)
            counts[i] = tuple_count(group, 2, group.central_of_order(2))
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(enumerated) > 1  # the threads did miss together
    assert groups[0] in enumerated and groups[0] is not expected_group
    assert all(group is groups[0] for group in groups)
    assert groups[0] is build_group("SL", 2, 5)
    assert counts == [expected] * 8


@pytest.mark.parametrize(
    "q, family, group_q",
    [(5, "GL", 3), (3, "SL", 3)],
)
def test_the_bridge_refuses_a_group_that_is_not_gl2q(q, family, group_q):
    group = build_group(family, 2, group_q)
    with pytest.raises(ValueError) as exc:
        point_count_bridge(q, 2, group=group)
    message = str(exc.value)
    assert f"GL(2,{q})" in message and repr(group) in message
