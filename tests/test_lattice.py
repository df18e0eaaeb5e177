"""Subgroup enumeration, mu, and coprime factorizations."""
import gc
import hashlib
from collections import Counter
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subdeg.analysis import maximum_cliques
from subdeg.constructions import agl, alternating, cyclic, dihedral, psl2, symmetric
from subdeg.groups import CapExceeded, PermGroup, elements, order
from subdeg.lattice import (
    SUBGROUP_CAP,
    all_subgroups_small,
    check_mu_bound,
    coprime_factorizations,
    distinct_prime_factors,
    mu,
    mu_prime_bound,
)
from subdeg.perm import Permutation, compose, inverse

from conftest import brute_normalizer, closure_elements, direct_sum, make_group


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
    "F21": make_group(7, "(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"),  # odd order: joins stop past |G|/2
    "C12": make_group(12, "(1,2,3,4,5,6,7,8,9,10,11,12)"),  # four generators of C12 cover one another
    "AGL(1,7)": agl(1, 7),  # elements of orders 6 and 7, each with several coprime powers
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

    @pytest.mark.parametrize("name", [k for k, G in ORACLE_GROUPS.items() if order(G) <= 60])
    def test_nodes_closed_under_element_joins(self, name):
        # every subgroup is reached from the trivial one by adding one element
        # at a time, so a node set closed under <S, g> holds every subgroup
        G = ORACLE_GROUPS[name]
        lat = all_subgroups_small(G)
        nodes = {s.element_set for s in lat.subgroups}
        assert frozenset([Permutation.identity(G.degree)]) in nodes
        elements_of_g = closure_elements(G.degree, G.generators)
        for s in lat.subgroups:
            for g in elements_of_g:
                if g not in s.element_set:
                    assert frozenset(closure_elements(G.degree, [*s.generators, g])) in nodes

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

    @pytest.mark.parametrize("name,joins", [("A5", 28), ("PSL(2,7)", 65)])
    def test_joins_run_on_class_representatives(self, name, joins, monkeypatch):
        # joining from every subgroup instead of one per class takes 428 and 2392;
        # trying each H-double-coset instead of each cyclic subgroup once, 93 and 291;
        # trying each cyclic subgroup once per double coset but not once per orbit
        # of double cosets under N_G(H), 57 and 153. The counts include the joins
        # that grow N_G(H). The count follows the element order, which follows the
        # chain: psl2(7) took 150 joins on its deterministic chain, 153 on its
        # random one, before normalizers; and 67 with normalizers while the random
        # chain rebuilt its orbits after each install, where they now grow in place
        from subdeg import lattice as lattice_mod

        calls = []
        join = lattice_mod._join_closure
        monkeypatch.setattr(lattice_mod, "_join_closure", lambda *a: calls.append(1) or join(*a))
        all_subgroups_small(ORACLE_GROUPS[name])
        assert len(calls) == joins

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "AGL(2,3)"])
    def test_normalizers_match_brute_force(self, name, monkeypatch):
        # each class enters with its size s, so its representative H has
        # |N_G(H)| = |G|/s; where N_G(H) is not G, _normalizer grows it from
        # H, and H with what it returns generates it
        from subdeg import lattice as lattice_mod

        G = agl(2, 3) if name == "AGL(2,3)" else ORACLE_GROUPS[name]
        entered, grown = [], []
        enter, grow = lattice_mod._enter_class, lattice_mod._normalizer

        def spy_enter(found, conjugations, H, gens):
            entered.append((H, enter(found, conjugations, H, gens)))
            return entered[-1][1]

        def spy_grow(rows, inv, H, gens, size):
            grown.append((H, gens, size, grow(rows, inv, H, gens, size)))
            return grown[-1][3]

        monkeypatch.setattr(lattice_mod, "_enter_class", spy_enter)
        monkeypatch.setattr(lattice_mod, "_normalizer", spy_grow)
        all_subgroups_small(G)
        elems = elements(G)  # the lattice numbers elements in this order

        def normalizer(H):
            return frozenset(brute_normalizer(elems, [elems[i] for i in H]))

        assert len(entered) > 2 and grown
        for H, size in entered:
            assert len(normalizer(H)) * size == len(elems)
        for H, gens, size, ts in grown:
            N = frozenset(closure_elements(G.degree, [elems[i] for i in (*gens, *ts)]))
            assert N == normalizer(H)
            assert len(N) == size

    @pytest.mark.parametrize("G,count", [(symmetric(5), 156), (psl2(7), 179)], ids=["S5", "PSL(2,7)"])
    def test_literature_subgroup_counts(self, G, count):
        assert len(all_subgroups_small(G)) == count

    @pytest.mark.parametrize("p", [5, 7, 11, 43])
    def test_agl1_closed_form_counts(self, p):
        # AGL(1,p) = C_p : C_(p-1) has tau(p-1)(p+1) - p + 1 subgroups: the
        # trivial one, p conjugates of C_d for each d | p-1 above 1, and one
        # C_p : C_d for each d | p-1. The maximal ones are the p conjugates of
        # C_(p-1) and C_p : C_((p-1)/q) for each prime q | p-1. AGL(1,43), of
        # order 1806, sits near SUBGROUP_CAP.
        divisors = [d for d in range(1, p) if (p - 1) % d == 0]
        primes = [q for q in divisors if q > 1 and all(q % e for e in range(2, q))]
        lat = all_subgroups_small(agl(1, p))
        assert lat.group_order == p * (p - 1)
        assert len(lat) == len(divisors) * (p + 1) - p + 1
        assert len(lat.maximal()) == len(primes) + p

    @pytest.mark.parametrize("k,count", [(4, 67), (5, 374), (6, 2825)])
    def test_elementary_abelian_closed_form_counts(self, k, count, monkeypatch):
        # C2^k has sum over d of the Gaussian binomials [k d]_2 subgroups,
        # each normal and so its own class, and 2^k - 1 maximal ones, all of
        # index 2
        from subdeg import lattice as lattice_mod

        sizes, enter = [], lattice_mod._enter_class
        monkeypatch.setattr(lattice_mod, "_enter_class", lambda *a: sizes.append(enter(*a)) or sizes[-1])
        G = make_group(2 * k, *(f"({2 * i + 1},{2 * i + 2})" for i in range(k)))
        lat = all_subgroups_small(G)
        assert len(lat) == count
        assert set(sizes) == {1} and len(sizes) == count
        assert sorted(s.index for s in lat.maximal()) == [2] * (2**k - 1)

    def test_lagrange_and_ordering(self):
        lat = all_subgroups_small(make_group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"))
        orders = [s.order for s in lat.subgroups]
        assert orders == sorted(orders)
        for s in lat.subgroups:
            assert lat.group_order % s.order == 0

    @pytest.mark.parametrize("G,count", [(psl2(7), 179), (dihedral(257), 260)], ids=["PSL(2,7)", "D257"])
    def test_order_is_order_then_int64_image_bytes(self, G, count):
        # one key on both sides of degree 255, where permutations change form
        assert order(G) <= SUBGROUP_CAP

        def key(s):
            rows = (np.array([p(x) for x in range(p.degree)], dtype="<i8").tobytes() for p in s.element_set)
            return s.order, sorted(rows)

        keys = [key(s) for s in all_subgroups_small(G).subgroups]
        assert len(keys) == count
        assert all(a < b for a, b in zip(keys, keys[1:]))

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


def lattice_digest(lat, generators: bool = True) -> str:
    """SHA-256 over a lattice in its order: per subgroup its order, index,
    maximality, its generators' images (unless `generators` is False) and
    its elements' images, sorted."""
    h = hashlib.sha256()
    for s in lat.subgroups:
        key = (s.order, s.index, s.is_maximal)
        if generators:
            key += ([bytes(p.image_seq()) for p in s.generators],)
        elems = sorted(bytes(p.image_seq()) for p in s.element_set)
        h.update(repr((*key, elems)).encode())
    return h.hexdigest()


# PSL(2,7) and PSL(2,11) moved when the random chain began to grow its
# orbits in place: psl2 groups list their elements in another order, so each
# class records other generators. They were 82ccdf54…2bc38 and
# ae253c19…5c2cc; the generator-free digests below did not move. A5, read
# from a file, moved when the deterministic chain grew its orbits in place
# too: it was d62cc2f1…8e3ae
LATTICE_DIGESTS = {
    "S4": "9c26d7da0a411a3fb6257baf565267dcf352ef40ff2fac30b274cfaf18b7232c",
    "S5": "cbd33ed77cf30f98df09259b0c24516d3ffc3e9421e3448ac993c2f972338b23",
    "PSL(2,7)": "bbc4830c3f1e44a19145e361c55a29fed6fe322bcbd0ac5988295fca07ab1cb7",
    "A6": "115bb0bfa190828bde4ba4cae27e3ebc232ee31d8a6c833ac6cec263c8fa41e4",
    "AGL(2,3)": "f17570f84477c2397d90de7557ef9aa62a4f38031f644da22b26f5cc18c9fdc6",
    "PSL(2,11)": "e3d97da0729e3d6a66a10aa5fce5f5eaf7a6ceef9d44dbdd19cddd41eafe2738",
    "A5": "8724e147737ef858e45b3d9b7c719dc1c4bc97b28e3768ba76b74dcaf1721378",
}
# computed before the random chain grew its orbits in place: every subgroup,
# its order, index and maximality, in lattice order, with no generators
LATTICE_DIGESTS_WITHOUT_GENERATORS = {
    "S4": "6f490db7792fb0fb7ab21fef14b249f8e856435eee9862b41d7f0225cdec4540",
    "S5": "ede2134ff9819b45ae996215963d3d1804c10d326ccd84354b6f2afe89a0f66b",
    "PSL(2,7)": "53f92bb0f117ef849e719266941cf3b0e98ee18ea7c39146f379dbd2ed27e15b",
    "A6": "15f5a18b77344b76dafad008cf2fc88e463e16bc4865ff7287e17fdb9a647b19",
    "AGL(2,3)": "bb59dabaa8568c1769e00f49d8bd8139bf57348411f304e44440d464c305ea0a",
    "PSL(2,11)": "e6777b1708cc6762b2e7699a5dfd5df54096ee42971040c7e99fa803dbc71979",
    "A5": "363e867d0d17c0d4791661300f9f86944a394f60ac62a699d3add494bd44455b",
}
LATTICE_GROUPS = {
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "PSL(2,7)": lambda: psl2(7),
    "A6": lambda: alternating(6),
    "AGL(2,3)": lambda: agl(2, 3),
    "PSL(2,11)": lambda: psl2(11),
    "A5": lambda: ORACLE_GROUPS["A5"],
}


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_lattice_matches_the_pinned_digest(name):
    # every subgroup, its order, index, maximality and recorded generators,
    # in lattice order
    assert lattice_digest(all_subgroups_small(LATTICE_GROUPS[name]())) == LATTICE_DIGESTS[name]


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_lattice_without_generators_matches_the_pinned_digest(name):
    # the subgroups and their order do not depend on the chain that lists G
    lat = all_subgroups_small(LATTICE_GROUPS[name]())
    assert lattice_digest(lat, generators=False) == LATTICE_DIGESTS_WITHOUT_GENERATORS[name]


@pytest.fixture
def collector():
    """Leaves the cyclic garbage collector as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_lattice_pauses_the_collector_and_restores_it(enabled, collector, monkeypatch):
    # off while the joins run, and as the caller left it after the call
    # returns or raises, at the order cap or at the subgroup count guard
    from subdeg import lattice as lattice_mod

    (gc.enable if enabled else gc.disable)()
    during, join = [], lattice_mod._join_closure
    monkeypatch.setattr(lattice_mod, "_join_closure", lambda *a: during.append(gc.isenabled()) or join(*a))
    all_subgroups_small(ORACLE_GROUPS["S4"])
    assert during and not any(during)
    assert gc.isenabled() is enabled
    with pytest.raises(CapExceeded, match="group order"):
        all_subgroups_small(ORACLE_GROUPS["A5"], cap=59)
    assert gc.isenabled() is enabled
    monkeypatch.setattr(lattice_mod, "SUBGROUP_COUNT_GUARD", 5)
    with pytest.raises(CapExceeded, match="subgroup count"):
        all_subgroups_small(ORACLE_GROUPS["C2^3"])
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_lattice_with_the_collector_off_matches_the_pinned_digest(name, collector):
    gc.disable()
    assert lattice_digest(all_subgroups_small(LATTICE_GROUPS[name]())) == LATTICE_DIGESTS[name]
    assert not gc.isenabled()


def naive_lattice(G):
    """Every subgroup as an element set, by the naive fixpoint: close the
    trivial subgroup under <S, g> for every found S and every g in G until
    nothing new appears. Elements are positions in closure_elements(G),
    multiplied through a table of compose, so each join is a breadth-first
    closure over ints."""
    elems = closure_elements(G.degree, G.generators)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[compose(p, q)] for q in elems] for p in elems]

    def join(gens):
        out = [index[Permutation.identity(G.degree)]]
        seen = set(out)
        for x in out:
            for g in gens:
                y = table[x][g]
                if y not in seen:
                    seen.add(y)
                    out.append(y)
        return frozenset(out)

    trivial = join(())
    found = {trivial: ()}
    pending = [trivial]
    for S in pending:
        for g in range(len(elems)):
            if g not in S:
                T = join((*found[S], g))
                if T not in found:
                    found[T] = (*found[S], g)
                    pending.append(T)
    return [frozenset(elems[i] for i in S) for S in found]


@st.composite
def small_groups(draw):
    """Groups of degree <= 8 and order <= 200. The generators may all
    preserve one split of the points, so that small groups of the larger
    degrees (intransitive products) are drawn too."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, n))
    rnd = draw(st.randoms(use_true_random=False))
    gens = [
        Permutation([*rnd.sample(range(m), m), *rnd.sample(range(m, n), n - m)])
        for _ in range(draw(st.integers(1, 3)))
    ]
    G = PermGroup(n, gens)
    assume(len(closure_elements(n, G.generators)) <= 200)
    return G


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_lattice_matches_naive_fixpoint(G):
    lat = all_subgroups_small(G)
    naive = naive_lattice(G)
    n = lat.group_order
    assert {s.element_set for s in lat.subgroups} == set(naive)
    assert len(lat) == len(naive)
    for s in lat.subgroups:
        assert frozenset(closure_elements(G.degree, s.generators)) == s.element_set
    assert [s.is_maximal for s in lat.subgroups] == maximal_by_containment(lat)
    # mu: the most pairwise coprime indices among all proper subgroups;
    # order <= 200 < 2*3*5*7 allows at most three
    indices = sorted({n // len(S) for S in naive if len(S) < n})
    coprime_sets = (
        c for r in range(4) for c in combinations(indices, r)
        if all(gcd(u, v) == 1 for u, v in combinations(c, 2))
    )
    assert mu(G, lat) == max(map(len, coprime_sets))
    # factorizations: every unordered pair of proper subgroups with coprime
    # indices, smaller index first, in lattice order
    position = {s.element_set: i for i, s in enumerate(lat.subgroups)}
    proper = sorted((S for S in naive if len(S) < n), key=position.__getitem__)
    want = [
        (A, B) if len(A) >= len(B) else (B, A)
        for i, A in enumerate(proper)
        for B in proper[i + 1 :]
        if gcd(n // len(A), n // len(B)) == 1
    ]
    facs = coprime_factorizations(G, lat)
    assert [(f.a.element_set, f.b.element_set) for f in facs] == want


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

    @pytest.mark.parametrize(
        "G,other",
        [
            (symmetric(4), cyclic(6)),
            (symmetric(4), make_group(4, "(1,2,3)", "(2,3,4)")),
            # two conjugate D4s in S4: same degree and order, other elements
            (make_group(4, "(1,2,3,4)", "(1,3)"), make_group(4, "(1,3,2,4)", "(1,2)")),
        ],
        ids=["degree", "order", "group"],
    )
    def test_lattice_of_another_group(self, G, other):
        lat = all_subgroups_small(other)
        with pytest.raises(ValueError, match="not the subgroup lattice"):
            mu(G, lat)
        with pytest.raises(ValueError, match="not the subgroup lattice"):
            coprime_factorizations(G, lat)

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


def test_lattice_repr_names_its_group():
    lat = all_subgroups_small(make_group(3, "(1,2,3)"))
    assert repr(lat).startswith("SubgroupLattice(degree=3, group_order=3, subgroups=")
