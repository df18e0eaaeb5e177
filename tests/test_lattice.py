"""Subgroup enumeration, mu, and coprime factorizations."""
from collections import Counter
from math import gcd

import numpy as np
import pytest

from subdeg.analysis import maximum_cliques
from subdeg.constructions import agl, psl2, symmetric
from subdeg.groups import CapExceeded, PermGroup, order
from subdeg.lattice import (
    all_subgroups_small,
    check_mu_bound,
    coprime_factorizations,
    distinct_prime_factors,
    mu,
    mu_prime_bound,
)
from subdeg.perm import Permutation, compose, inverse

from conftest import closure_elements, direct_sum, make_group


def sl25_on_vectors():
    """SL(2,5) permuting the 24 non-zero vectors of a 2-dim space over GF(5)."""
    vecs = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def perm_of(m):
        images = np.empty(24, dtype=np.int64)
        for v, i in idx.items():
            w = (
                (v[0] * m[0][0] + v[1] * m[1][0]) % 5,
                (v[0] * m[0][1] + v[1] * m[1][1]) % 5,
            )
            images[i] = idx[w]
        return Permutation(images)

    return PermGroup(24, [perm_of([[1, 1], [0, 1]]), perm_of([[0, 1], [4, 0]])])


A5_ORDER_PROFILE = {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}

ORACLE_GROUPS = {
    "S4": make_group(4, "(1,2,3,4)", "(1,2)"),
    "A5": make_group(5, "(1,2,3)", "(3,4,5)"),
    "D6": make_group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"),
    "SL(2,5)": sl25_on_vectors(),
    "PSL(2,7)": psl2(7),
    "C5": make_group(5, "(1,2,3,4,5)"),  # the trivial subgroup is maximal
    "C8": make_group(8, "(1,2,3,4,5,6,7,8)"),  # joins with no proper size to reach
    "C2": make_group(2, "(1,2)"),
    "trivial": PermGroup(3, []),
    "C2^3": make_group(6, "(1,2)", "(3,4)", "(5,6)"),  # every class a singleton
}

# conjugacy classes of A5's subgroups: 1, C2, C3, V4, C5, S3, D10, A4, A5
A5_CLASS_SIZES = [1, 15, 10, 5, 6, 10, 5, 6, 1]


def maximal_by_containment(lat):
    """The containment scan: s is maximal iff it is proper and no proper
    subgroup of larger order contains it."""
    n = lat.group_order
    return [
        s.order < n
        and not any(
            s.order < t.order < n and s.element_set <= t.element_set
            for t in lat.subgroups
        )
        for s in lat.subgroups
    ]


def coprime_pairs_by_scan(lat):
    """The pair scan: every unordered pair of proper subgroups, in lattice
    order, whose indices are coprime."""
    proper = lat.proper()
    return [
        (A, B)
        for i, A in enumerate(proper)
        for B in proper[i + 1 :]
        if gcd(A.index, B.index) == 1
    ]


def conjugation_classes(G, element_sets):
    """Partition element sets into orbits under conjugation by G's generators,
    asserting that every conjugate is among them."""
    pending = set(element_sets)
    classes = []
    while pending:
        orbit = [pending.pop()]
        for S in orbit:
            for g in G.generators:
                T = frozenset(compose(compose(inverse(g), s), g) for s in S)
                assert T in element_sets, "subgroups not closed under conjugation"
                if T in pending:
                    pending.remove(T)
                    orbit.append(T)
        classes.append(orbit)
    return classes


class TestAllSubgroups:
    def test_a5_has_59_subgroups(self):
        lat = all_subgroups_small(make_group(5, "(1,2,3)", "(3,4,5)"))
        assert len(lat) == 59
        assert Counter(s.order for s in lat.subgroups) == A5_ORDER_PROFILE

    def test_a5_maximal_orders(self):
        lat = all_subgroups_small(make_group(5, "(1,2,3)", "(3,4,5)"))
        assert sorted({s.order for s in lat.maximal()}) == [6, 10, 12]
        assert sorted({s.index for s in lat.maximal()}) == [5, 6, 10]

    def test_every_node_is_a_subgroup(self):
        lat = all_subgroups_small(make_group(4, "(1,2,3,4)", "(1,2)"))
        assert len(lat) == 30  # S4
        for s in lat.subgroups:
            regenerated = closure_elements(4, s.generators)
            assert frozenset(regenerated) == s.element_set
            assert s.order * s.index == lat.group_order
            for a in s.element_set:
                for b in s.generators:
                    assert compose(a, b) in s.element_set

    @pytest.mark.parametrize("name", list(ORACLE_GROUPS))
    def test_nodes_and_maximality_match_oracles(self, name):
        lat = all_subgroups_small(ORACLE_GROUPS[name])
        for s in lat.subgroups:
            assert frozenset(closure_elements(lat.degree, s.generators)) == s.element_set
        assert [s.is_maximal for s in lat.subgroups] == maximal_by_containment(lat)

    @pytest.mark.parametrize("name", list(ORACLE_GROUPS))
    def test_classes_match_conjugation_oracle(self, name):
        lat = all_subgroups_small(ORACLE_GROUPS[name])
        maximal_of = {s.element_set: s.is_maximal for s in lat.subgroups}
        classes = conjugation_classes(ORACLE_GROUPS[name], set(maximal_of))
        assert sum(map(len, classes)) == len(lat)
        for orbit in classes:
            assert len({maximal_of[S] for S in orbit}) == 1
        if name == "A5":
            assert sorted(map(len, classes)) == sorted(A5_CLASS_SIZES)

    @pytest.mark.parametrize("name,joins", [("A5", 93), ("PSL(2,7)", 291)])
    def test_joins_run_on_class_representatives(self, name, joins, monkeypatch):
        # joining from every subgroup instead of one per class takes 428 and 2392
        from subdeg import lattice as lattice_mod

        calls = []
        join = lattice_mod._join_closure
        monkeypatch.setattr(lattice_mod, "_join_closure", lambda *a: calls.append(1) or join(*a))
        all_subgroups_small(ORACLE_GROUPS[name])
        assert len(calls) == joins

    @pytest.mark.parametrize("G,count", [(symmetric(5), 156), (psl2(7), 179)], ids=["S5", "PSL(2,7)"])
    def test_literature_subgroup_counts(self, G, count):
        assert len(all_subgroups_small(G)) == count

    def test_lagrange_and_ordering(self):
        lat = all_subgroups_small(make_group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"))
        orders = [s.order for s in lat.subgroups]
        assert orders == sorted(orders)
        for s in lat.subgroups:
            assert lat.group_order % s.order == 0

    def test_deterministic(self):
        G = make_group(4, "(1,2,3,4)", "(1,2)")
        a = all_subgroups_small(G)
        b = all_subgroups_small(G)
        assert [s.order for s in a.subgroups] == [s.order for s in b.subgroups]
        assert [s.element_set for s in a.subgroups] == [s.element_set for s in b.subgroups]
        assert [s.generators for s in a.subgroups] == [s.generators for s in b.subgroups]

    def test_trivial_group(self):
        lat = all_subgroups_small(PermGroup(3, []))
        assert len(lat) == 1
        assert lat.maximal() == ()
        assert lat.proper() == ()

    def test_cap_exceeded(self):
        big = direct_sum(
            make_group(5, "(1,2,3)", "(3,4,5)"), make_group(5, "(1,2,3)", "(3,4,5)")
        )
        with pytest.raises(CapExceeded) as e:
            all_subgroups_small(big)
        assert e.value.value == 3600
        assert e.value.cap == 2000

    def test_custom_cap(self):
        with pytest.raises(CapExceeded):
            all_subgroups_small(make_group(5, "(1,2,3)", "(3,4,5)"), cap=59)

    def test_a6_order_360(self):
        # regression: must stay tractable well past toy sizes
        A6 = make_group(6, "(1,2,3)", "(2,3,4,5,6)")
        lat = all_subgroups_small(A6)
        assert len(lat) == 501
        assert sorted({s.index for s in lat.maximal()}) == [6, 10, 15]

    def test_subgroup_count_guard(self, monkeypatch):
        from subdeg import lattice as lattice_mod

        monkeypatch.setattr(lattice_mod, "SUBGROUP_COUNT_GUARD", 5)
        # C2^3 has 16 subgroups, each its own class: representatives must count
        for G in (make_group(4, "(1,2,3,4)", "(1,2)"), ORACLE_GROUPS["C2^3"]):
            with pytest.raises(CapExceeded) as e:
                all_subgroups_small(G)
            assert e.value.what == "subgroup count"
            assert e.value.cap == 5


class TestMu:
    def test_known_values(self):
        cases = [
            (make_group(5, "(1,2,3)", "(3,4,5)"), 2),  # A5
            (make_group(3, "(1,2,3)", "(1,2)"), 2),  # S3
            (make_group(4, "(1,2,3)", "(2,3,4)"), 2),  # A4
            (make_group(4, "(1,2,3,4)", "(1,3)"), 1),  # D4
            (make_group(6, "(1,2,3,4,5,6)"), 2),  # C6 = C2 x C3
            (make_group(8, "(1,2,3,4,5,6,7,8)"), 1),  # C8
            (make_group(4, "(1,2,3,4)", "(1,2)"), 2),  # S4
        ]
        for G, want in cases:
            assert mu(G) == want

    def test_trivial_group_mu_zero(self):
        assert mu(PermGroup(2, [])) == 0

    def test_maximal_restriction_matches_all_proper(self):
        groups = [
            make_group(5, "(1,2,3)", "(3,4,5)"),
            make_group(4, "(1,2,3,4)", "(1,2)"),
            make_group(4, "(1,2,3)", "(2,3,4)"),
            make_group(4, "(1,2,3,4)", "(1,3)"),
            make_group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"),
            make_group(12, "(1,2,3,4,5,6,7,8,9,10,11,12)"),
        ]
        for G in groups:
            lat = all_subgroups_small(G)
            proper_indices = tuple(sorted({s.index for s in lat.proper()}))
            brute = len(maximum_cliques(proper_indices)[0])
            assert mu(G, lat) == brute

    def test_prime_bound(self):
        for G in [
            make_group(5, "(1,2,3)", "(3,4,5)"),
            make_group(6, "(1,2,3,4,5,6)"),
            make_group(4, "(1,2,3,4)", "(1,3)"),
        ]:
            assert mu(G) <= mu_prime_bound(order(G))

    def test_sl25_bound(self):
        G = sl25_on_vectors()
        assert order(G) == 120
        v = check_mu_bound(G)
        assert v.mu_value == 2
        assert v.bound == 2
        assert v.holds is True

    def test_distinct_prime_factors(self):
        assert distinct_prime_factors(60) == (2, 3, 5)
        assert distinct_prime_factors(1) == ()
        assert distinct_prime_factors(97) == (97,)
        assert distinct_prime_factors(1024) == (2,)
        with pytest.raises(ValueError):
            distinct_prime_factors(0)


class TestFactorizations:
    # AGL(2,3) has an index coprime to two smaller ones, so its pairs must
    # be sorted across index buckets
    @pytest.mark.parametrize("name", [*ORACLE_GROUPS, "AGL(2,3)"])
    def test_pairs_match_scan_oracle(self, name):
        G = agl(2, 3) if name == "AGL(2,3)" else ORACLE_GROUPS[name]
        lat = all_subgroups_small(G)
        facs = coprime_factorizations(G, lat)
        want = [(A, B) if A.index < B.index else (B, A) for A, B in coprime_pairs_by_scan(lat)]
        assert [(f.a, f.b) for f in facs] == want  # Subgroup compares by identity

    def test_a5_pairs(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        facs = coprime_factorizations(G)
        assert len(facs) == 60
        for f in facs:
            assert gcd(f.index_a, f.index_b) == 1
            assert f.index_a <= f.index_b
        maximal_pairs = {
            (f.index_a, f.index_b) for f in facs if f.both_maximal
        }
        assert maximal_pairs == {(5, 6)}

    def test_s3_pairs(self):
        facs = coprime_factorizations(make_group(3, "(1,2,3)", "(1,2)"))
        assert len(facs) == 3
        assert all(f.both_maximal for f in facs)
        assert {(f.index_a, f.index_b) for f in facs} == {(2, 3)}

    def test_d4_has_none(self):
        assert coprime_factorizations(make_group(4, "(1,2,3,4)", "(1,3)")) == ()

    def test_product_identity_spot_check(self):
        G = make_group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)")
        for f in coprime_factorizations(G):
            prods = {compose(a, b) for a in f.a.element_set for b in f.b.element_set}
            assert len(prods) == order(G)
