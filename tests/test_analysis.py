"""Suborbit profiles, coprime cliques, and the divisibility checks."""
import time

import pytest
from hypothesis import given, settings, strategies as st

from subdeg.analysis import (
    SuborbitProfile,
    maximum_cliques,
    check_stabilizer_normal_bound,
    common_divisor_graph,
    count_maximum_cliques,
    max_coprime_set,
    neumann_check,
    subdegrees,
    sylow_divisibility_check,
    weiss_check,
)
from subdeg.constructions import agl, alternating, cyclic, dihedral, ksubsets_action, psl2, symmetric
from subdeg.groups import (
    PermGroup,
    coset_action,
    elements,
    is_subgroup,
    order,
    point_stabilizer,
    sylow_subgroup_small,
)
from subdeg.numtheory import prime_factors
from subdeg.perm import compose, inverse

from conftest import brute_normalizer, brute_stabilizer, brute_orbits, closure_elements, make_group


def petersen_action():
    A5 = make_group(5, "(1,2,3)", "(3,4,5)")
    H = make_group(5, "(1,2,3)", "(1,2)(4,5)")
    action, _ = coset_action(A5, H)
    return action


class TestSubdegrees:
    def test_natural_a5(self):
        prof = subdegrees(make_group(5, "(1,2,3)", "(3,4,5)"))
        assert prof.subdegrees == (1, 4)
        assert prof.rank == 2
        assert prof.base_point == 0
        assert prof.suborbits[0] == (0, 1)

    def test_natural_s4(self):
        prof = subdegrees(make_group(4, "(1,2,3,4)", "(1,2)"))
        assert prof.subdegrees == (1, 3)

    def test_regular_c5(self):
        prof = subdegrees(make_group(5, "(1,2,3,4,5)"))
        assert prof.subdegrees == (1, 1, 1, 1, 1)
        assert prof.distinct_nontrivial == ()

    def test_petersen(self):
        prof = subdegrees(petersen_action())
        assert prof.subdegrees == (1, 3, 6)
        assert prof.distinct_nontrivial == (3, 6)

    def test_base_point_choice(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        prof = subdegrees(G, point=3)
        assert prof.base_point == 3
        assert prof.suborbits[0] == (3, 1)
        assert prof.subdegrees == (1, 4)

    def test_matches_brute_stabilizer_orbits(self):
        G = make_group(6, "(1,2,3,4,5,6)", "(1,2)")
        elems = closure_elements(6, G.generators)
        stab = brute_stabilizer(elems, 0)
        want = sorted(len(o) for o in brute_orbits(stab, 6))
        assert list(subdegrees(G).subdegrees) == want

    def test_intransitive_rejected(self):
        with pytest.raises(ValueError, match="transitive"):
            subdegrees(make_group(5, "(1,2,3)"))

    def test_point_out_of_range(self):
        # point == degree on an intransitive group too, where a check that
        # let the point through would fail for intransitivity instead
        for G in (make_group(3, "(1,2,3)"), make_group(3, "(1,2)")):
            with pytest.raises(ValueError, match="^point 3 out of range for degree 3$"):
                subdegrees(G, point=3)


class TestCliques:
    def test_maximum_cliques_exhaustive(self):
        assert maximum_cliques((2, 3, 5, 6)) == [(2, 3, 5)]
        # 3 and 6 share a factor: two singleton maximum cliques
        assert maximum_cliques((3, 6)) == [(3,), (6,)]
        assert maximum_cliques(()) == [()]

    def test_tie_break_is_lexicographic(self):
        prof = subdegrees(petersen_action())
        clique = max_coprime_set(prof)
        assert clique.values == (3,)
        assert clique.size == 1
        assert count_maximum_cliques(prof) == 2

    def test_regular_group_has_empty_clique(self):
        prof = subdegrees(make_group(4, "(1,2,3,4)"))
        assert max_coprime_set(prof).values == ()
        assert max_coprime_set(prof).size == 0

    @given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_clique_matches_subset_search(self, values):
        from itertools import combinations
        from math import gcd

        verts = tuple(sorted(set(values)))
        best = ()
        for k in range(len(verts), 0, -1):
            good = [
                c
                for c in combinations(verts, k)
                if all(gcd(a, b) == 1 for a, b in combinations(c, 2))
            ]
            if good:
                best = min(good)
                break
        cliques = maximum_cliques(verts)
        assert cliques[0] == best
        assert len(set(cliques)) == len(cliques)


class TestWeissNeumann:
    def test_weiss_largest_shares_factor(self):
        prof = subdegrees(petersen_action())
        assert weiss_check(prof) is True

    def test_weiss_vacuous_on_regular(self):
        assert weiss_check(subdegrees(make_group(3, "(1,2,3)"))) is True

    def test_weiss_fails_on_synthetic_profile(self):
        prof = SuborbitProfile(degree=6, base_point=0, suborbits=((0, 1), (1, 2), (3, 3)))
        assert weiss_check(prof) is False

    def test_neumann_rank_bound(self):
        prof = subdegrees(petersen_action())
        clique = max_coprime_set(prof)
        assert neumann_check(prof, clique) is True

    def test_neumann_fails_on_synthetic_profile(self):
        # rank 3 but two coprime subdegrees would need rank >= 4
        prof = SuborbitProfile(degree=6, base_point=0, suborbits=((0, 1), (1, 2), (3, 3)))
        clique = max_coprime_set(prof)
        assert clique.values == (2, 3)
        assert neumann_check(prof, clique) is False


class TestCommonDivisorGraph:
    def test_petersen_graph(self):
        g = common_divisor_graph(subdegrees(petersen_action()))
        assert g.vertices == (3, 6)
        assert g.edges == ((3, 6),)
        assert g.adjacency[3] == (6,)

    def test_ksubsets_like_profile(self):
        prof = SuborbitProfile(
            degree=35, base_point=0, suborbits=((0, 1), (1, 4), (5, 12), (17, 18))
        )
        g = common_divisor_graph(prof)
        assert g.edges == ((4, 12), (4, 18), (12, 18))
        assert max_coprime_set(prof).size == 1

    def test_j1_profile_leaves_the_coprime_pair_unjoined(self):
        # J1 on 266 points: 11 and 12 are coprime, so no edge joins them
        prof = SuborbitProfile(
            degree=266, base_point=0, suborbits=((0, 1), (1, 11), (12, 12), (24, 110), (134, 132))
        )
        g = common_divisor_graph(prof)
        assert g.edges == ((11, 110), (11, 132), (12, 110), (12, 132), (110, 132))
        assert max_coprime_set(prof).values == (11, 12)


class TestSylowDivisibility:
    def test_a5_p2_applies_and_holds(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        v = sylow_divisibility_check(G, 0, 2)
        assert v.hypothesis_holds is True
        assert v.conclusion_holds is True
        assert v.subdegrees == (1, 4)

    def test_a5_p5_normalizer_too_big(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        v = sylow_divisibility_check(G, 0, 5)
        assert v.hypothesis_holds is False
        assert v.conclusion_holds is None
        assert v.applicable is False

    def test_prime_not_dividing_order(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        v = sylow_divisibility_check(G, 0, 7)
        assert v.hypothesis_holds is False
        assert v.conclusion_holds is None

    @pytest.mark.parametrize(
        "build, p",
        [(lambda: alternating(10), 5), (lambda: alternating(10), 2), (lambda: agl(3, 3), 3)],
        ids=["alt(10)-5", "alt(10)-2", "agl(3,3)-3"],
    )
    def test_prime_dividing_the_degree_builds_no_sylow_subgroup(self, build, p):
        # p | n = |G : G_a| keeps every Sylow p-subgroup out of the point
        # stabilizers; listing these groups would pass ELEMENTS_CAP
        G = build()
        order(G)  # the bound is on the check, not on building G's chain
        t = time.process_time()
        v = sylow_divisibility_check(G, 0, p)
        assert time.process_time() - t < 0.1
        assert (v.hypothesis_holds, v.conclusion_holds) == (False, None)

    def test_non_prime_dividing_the_degree_is_an_error(self):
        with pytest.raises(ValueError, match="6 is not prime"):
            sylow_divisibility_check(make_group(6, "(1,2,3,4,5,6)"), 0, 6)

    def test_trivial_sylow_subgroup_on_one_point(self):
        # a trivial P fixes every point; on one point that is exactly one
        v = sylow_divisibility_check(PermGroup(1, []), 0, 2)
        assert v.hypothesis_holds is False
        assert v.conclusion_holds is None


def conjugate_scan_hypothesis(g_elems, P, point):
    """Oracle: some conjugate of the normalizer of the Sylow subgroup P lies
    in the stabilizer of the point, with the normalizer and the scan over G
    both taken from element lists built by closure; g_elems lists G."""
    p_elems = closure_elements(P.degree, P.generators)
    if len(p_elems) == 1:
        return False
    N = brute_normalizer(g_elems, p_elems)
    for g in g_elems:
        g_inv = inverse(g)
        if all(compose(compose(g_inv, x), g)(point) == point for x in N):
            return True
    return False


@pytest.mark.parametrize(
    "degree, gens, sub_gens, size",
    [
        (4, ("(1,2,3,4)", "(1,2)"), ("(1,2,3,4)",), 8),
        (4, ("(1,2,3,4)", "(1,2)"), ("(1,2)(3,4)", "(1,3)(2,4)"), 24),  # normal subgroup
        (5, ("(1,2,3,4,5)", "(1,2,3)"), ("(1,2,3,4,5)",), 10),
    ],
    ids=["c4-in-s4", "v4-in-s4", "c5-in-a5"],
)
def test_brute_normalizer_orders(degree, gens, sub_gens, size):
    # checks the oracle behind conjugate_scan_hypothesis on known normalizers
    G, H = make_group(degree, *gens), make_group(degree, *sub_gens)
    N = brute_normalizer(closure_elements(degree, G.generators), closure_elements(degree, H.generators))
    assert len(N) == size
    assert len(closure_elements(degree, N)) == size  # closed under products


SYLOW_ORACLE_GROUPS = {
    "psl2(7)": lambda: psl2(7),
    "psl2(8)": lambda: psl2(8),
    "psl2(11)": lambda: psl2(11),
    "psl2(13)": lambda: psl2(13),
    "alt(5)": lambda: alternating(5),
    "alt(6)": lambda: alternating(6),
    "alt(7)": lambda: alternating(7),
    "alt(8)": lambda: alternating(8),
    "sym(5)": lambda: symmetric(5),
    "agl(1,7)": lambda: agl(1, 7),
    "agl(2,3)": lambda: agl(2, 3),
    "agl(3,2)": lambda: agl(3, 2),
    "ksubsets(6,2)": lambda: ksubsets_action(6, 2),
    "ksubsets(7,2)": lambda: ksubsets_action(7, 2),
    "dihedral(6)": lambda: dihedral(6),
    "dihedral(9)": lambda: dihedral(9),
    "cyclic(6)": lambda: cyclic(6),
}


@pytest.mark.parametrize("name", SYLOW_ORACLE_GROUPS)
def test_sylow_hypothesis_matches_conjugate_scan(name):
    G = SYLOW_ORACLE_GROUPS[name]()
    g_elems = closure_elements(G.degree, G.generators)
    for p in (2, 3, 5, 7, 11, 13):
        v = sylow_divisibility_check(G, 0, p)
        assert v.hypothesis_holds == conjugate_scan_hypothesis(g_elems, sylow_subgroup_small(G, p), 0), (name, p)


SYLOW_PRIMES = (2, 3, 5, 7, 11, 13)

# (order of the Sylow subgroup, hypothesis_holds, conclusion_holds) at point
# 0 for each prime in SYLOW_PRIMES, as computed by the normalizer-scan search
SYLOW_TABLE = {
    "psl2(7)": ((8, False, None), (3, False, None), (1, False, None), (7, True, True), (1, False, None), (1, False, None)),
    "psl2(8)": ((8, True, True), (9, False, None), (1, False, None), (7, False, None), (1, False, None), (1, False, None)),
    "psl2(11)": ((4, False, None), (3, False, None), (5, False, None), (1, False, None), (11, True, True), (1, False, None)),
    "psl2(13)": ((4, False, None), (3, False, None), (1, False, None), (7, False, None), (1, False, None), (13, True, True)),
    "alt(5)": ((4, True, True), (3, False, None), (5, False, None), (1, False, None), (1, False, None), (1, False, None)),
    "alt(6)": ((8, False, None), (9, False, None), (5, True, True), (1, False, None), (1, False, None), (1, False, None)),
    "alt(7)": ((8, True, True), (9, True, True), (5, False, None), (7, False, None), (1, False, None), (1, False, None)),
    "alt(8)": ((64, False, None), (9, False, None), (5, False, None), (7, True, True), (1, False, None), (1, False, None)),
    "sym(5)": ((8, True, True), (3, False, None), (5, False, None), (1, False, None), (1, False, None), (1, False, None)),
    "agl(1,7)": ((2, True, True), (3, True, True), (1, False, None), (7, False, None), (1, False, None), (1, False, None)),
    "agl(2,3)": ((16, True, True), (27, False, None), (1, False, None), (1, False, None), (1, False, None), (1, False, None)),
    "agl(3,2)": ((64, False, None), (3, False, None), (1, False, None), (7, True, True), (1, False, None), (1, False, None)),
    "ksubsets(6,2)": ((8, True, True), (9, False, None), (5, False, None), (1, False, None), (1, False, None), (1, False, None)),
    "ksubsets(7,2)": ((8, True, True), (9, False, None), (5, True, True), (7, False, None), (1, False, None), (1, False, None)),
    "dihedral(6)": ((4, False, None), (3, False, None), (1, False, None), (1, False, None), (1, False, None), (1, False, None)),
    "dihedral(9)": ((2, True, True), (9, False, None), (1, False, None), (1, False, None), (1, False, None), (1, False, None)),
    "cyclic(6)": ((2, False, None), (3, False, None), (1, False, None), (1, False, None), (1, False, None), (1, False, None)),
}


@pytest.mark.parametrize("name", SYLOW_ORACLE_GROUPS)
def test_sylow_verdicts_match_the_pinned_table(name):
    G = SYLOW_ORACLE_GROUPS[name]()
    row = []
    for p in SYLOW_PRIMES:
        v = sylow_divisibility_check(G, 0, p)
        row.append((order(sylow_subgroup_small(G, p)), v.hypothesis_holds, v.conclusion_holds))
    assert tuple(row) == SYLOW_TABLE[name]


@pytest.mark.parametrize("name", SYLOW_ORACLE_GROUPS)
def test_sylow_subgroup_is_a_full_p_subgroup(name):
    # independent of sylow_subgroup_small: |P| is the p-part of |G|, read
    # off the factorization of |G|, and every element of P has p-power order
    G = SYLOW_ORACLE_GROUPS[name]()
    n = order(G)
    for p in SYLOW_PRIMES:
        P = sylow_subgroup_small(G, p)
        assert is_subgroup(P, G), (name, p)
        assert n % order(P) == 0 and (n // order(P)) % p != 0, (name, p)
        for x in elements(P):
            assert set(prime_factors(x.order())) <= {p}, (name, p)


class TestStabilizerNormalBound:
    def test_a5_natural_with_full_stabilizer(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        v = check_stabilizer_normal_bound(G, 0, point_stabilizer(G, 0))
        assert v.applicable is True
        assert v.clique_size == 1
        assert v.mu_value == 2
        assert v.holds is True

    def test_a5_natural_with_klein_subgroup(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        N = make_group(5, "(2,3)(4,5)", "(2,4)(3,5)")
        v = check_stabilizer_normal_bound(G, 0, N)
        assert v.applicable is True
        assert v.mu_value == 1
        assert v.holds is True

    def test_petersen_with_full_stabilizer(self):
        action = petersen_action()
        v = check_stabilizer_normal_bound(action, 0, point_stabilizer(action, 0))
        assert v.applicable is True
        assert v.clique_size == 1
        assert v.mu_value == 2

    def test_trivial_n_not_applicable(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        v = check_stabilizer_normal_bound(G, 0, PermGroup(5, []))
        assert v.applicable is False
        assert v.holds is None
        assert v.clique_size is None

    def test_rejects_non_subgroup(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        N = make_group(5, "(1,2,3,4,5)")
        with pytest.raises(ValueError, match="not a subgroup"):
            check_stabilizer_normal_bound(G, 0, N)

    def test_rejects_non_normal(self):
        G = make_group(5, "(1,2,3)", "(3,4,5)")
        N = make_group(5, "(2,3)(4,5)")
        with pytest.raises(ValueError, match="not normal"):
            check_stabilizer_normal_bound(G, 0, N)
