"""Field arithmetic and the family constructors, against closed forms."""
from itertools import combinations
from math import comb, factorial

import pytest

from subdeg.analysis import subdegrees
from subdeg.constructions import (
    AGL_DEGREE_CAP,
    FiniteField,
    ProjectiveLine,
    agl,
    agl_order,
    alternating,
    alternating_order,
    cyclic,
    dihedral,
    ksubsets_action,
    partition_action,
    psl2,
    psl2_order,
    symmetric,
)
from subdeg.groups import (
    contains,
    is_primitive,
    is_transitive,
    minimal_block_system,
    order,
)
from subdeg.perm import parse_cycles

AGL_PARAMS = [(1, 5), (1, 7), (1, 13), (2, 2), (2, 3), (3, 2), (2, 5), (4, 2), (2, 7), (3, 3)]
PSL_PARAMS = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61]


class TestFiniteField:
    def test_small_moduli(self):
        assert FiniteField(4).modulus == (1, 1, 1)  # x^2+x+1
        assert FiniteField(9).modulus == (1, 0, 1)  # x^2+1
        # lex-smallest over GF(2) is x^3+x^2+1, not the Conway choice
        assert FiniteField(8).modulus == (1, 0, 1, 1)

    def test_prime_field(self):
        F = FiniteField(7)
        assert (F.p, F.f) == (7, 1)
        assert F.mul(3, 5) == 1
        assert F.inv(3) == 5
        assert F.primitive_element == 3

    def test_known_primitive_elements(self):
        assert FiniteField(4).primitive_element == 2  # x
        assert FiniteField(9).primitive_element == 4  # x+1

    def test_rejects_non_prime_powers(self):
        for bad in [6, 12, 100, 1000]:
            with pytest.raises(ValueError, match="prime power"):
                FiniteField(bad)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            FiniteField(2048)
        with pytest.raises(ValueError):
            FiniteField(1)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
    def test_field_axioms(self, q):
        F = FiniteField(q)
        elems = range(q)
        for a in elems:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        # distributivity on a deterministic sample
        sample = list(range(min(q, 9)))
        for a in sample:
            for b in sample:
                for c in sample:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @pytest.mark.parametrize("q", [8, 9, 25])
    def test_primitive_element_order(self, q):
        F = FiniteField(q)
        powers = set()
        acc = 1
        for _ in range(q - 1):
            powers.add(acc)
            acc = F.mul(acc, F.primitive_element)
        assert powers == set(range(1, q))


class TestProjectiveLine:
    def test_identity_matrix(self):
        line = ProjectiveLine(FiniteField(5))
        p = line.mobius_perm(((1, 0), (0, 1)))
        assert p.is_identity()

    def test_singular_rejected(self):
        line = ProjectiveLine(FiniteField(5))
        with pytest.raises(ValueError, match="singular"):
            line.mobius_perm(((2, 4), (1, 2)))

    def test_translation_fixes_infinity(self):
        F = FiniteField(7)
        line = ProjectiveLine(F)
        p = line.mobius_perm(((1, 0), (3, 1)))  # x -> x+3
        assert p(line.infinity) == line.infinity
        assert p(0) == 3
        assert p(5) == 1

    def test_inversion_swaps_zero_and_infinity(self):
        F = FiniteField(7)
        line = ProjectiveLine(F)
        p = line.mobius_perm(((0, 1), (1, 0)))  # x -> 1/x
        assert p(0) == line.infinity
        assert p(line.infinity) == 0
        assert p(3) == F.inv(3)


class TestAlternatingSymmetric:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_alternating_order(self, n):
        assert order(alternating(n)) == alternating_order(n) == factorial(n) // 2

    def test_alternating_is_even_only(self):
        A5 = alternating(5)
        assert contains(A5, parse_cycles("(1,2,3)", 5))
        assert not contains(A5, parse_cycles("(1,2)", 5))

    def test_alternating_rejects_small(self):
        with pytest.raises(ValueError):
            alternating(2)

    @pytest.mark.parametrize("n,want", [(2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric_order(self, n, want):
        assert order(symmetric(n)) == want

    def test_primitive_natural_actions(self):
        assert is_primitive(alternating(9))
        assert is_primitive(symmetric(6))


class TestKSubsets:
    def test_degrees_and_subdegrees(self):
        G = ksubsets_action(5, 2)
        assert G.degree == 10
        assert subdegrees(G).subdegrees == (1, 3, 6)
        G = ksubsets_action(7, 3)
        assert G.degree == comb(7, 3) == 35
        assert subdegrees(G).subdegrees == (1, 4, 12, 18)
        G = ksubsets_action(6, 1)
        assert subdegrees(G).subdegrees == (1, 5)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ksubsets_action(6, 3)  # k = n/2 rejected
        with pytest.raises(ValueError):
            ksubsets_action(5, 0)
        with pytest.raises(ValueError):
            ksubsets_action(4, 2)

    def test_label_round_trip(self):
        # acting on the label then decoding = acting on the decoded subset
        n, k = 6, 2
        labels = list(combinations(range(n), k))
        G = ksubsets_action(n, k)
        A = alternating(n)
        for g_nat, g_ind in zip(A.generators, G.generators):
            for i, subset in enumerate(labels):
                assert labels[g_ind(i)] == tuple(sorted(g_nat(x) for x in subset))


class TestPartitions:
    @pytest.mark.parametrize(
        "n,k,degree", [(4, 2, 3), (6, 2, 15), (6, 3, 10), (8, 2, 105), (8, 4, 35), (9, 3, 280)]
    )
    def test_degree_formula(self, n, k, degree):
        G = partition_action(n, k)
        assert G.degree == degree
        assert G.degree == factorial(n) // (factorial(k) ** (n // k) * factorial(n // k))
        assert is_transitive(G)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            partition_action(6, 4)  # k does not divide n
        with pytest.raises(ValueError):
            partition_action(6, 6)
        with pytest.raises(ValueError):
            partition_action(6, 1)

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="cap"):
            partition_action(12, 2, degree_cap=1000)

    def test_pairs_partition_of_8_is_imprimitive(self):
        # the stabilizer of a pairs partition lies in an affine subgroup of
        # index 15, so the 105-point action has 15 blocks of size 7
        G = partition_action(8, 2)
        assert not is_primitive(G)
        sizes = {
            (bs.num_blocks, bs.block_size)
            for x in range(1, G.degree)
            for bs in [minimal_block_system(G, (0, x))]
            if 1 < bs.num_blocks < G.degree
        }
        assert sizes == {(15, 7)}

    def test_small_cases_primitive(self):
        assert is_primitive(partition_action(6, 2))
        assert is_primitive(partition_action(6, 3))
        assert is_primitive(partition_action(8, 4))


class TestAffine:
    @pytest.mark.parametrize("d,p", AGL_PARAMS)
    def test_order_formula(self, d, p):
        assert order(agl(d, p)) == agl_order(d, p)

    def test_agl_1_5_profile(self):
        G = agl(1, 5)
        assert order(G) == 20
        assert subdegrees(G).subdegrees == (1, 4)

    def test_two_transitive(self):
        for d, p in [(2, 3), (3, 2), (1, 13)]:
            prof = subdegrees(agl(d, p))
            assert prof.rank == 2

    def test_errors(self):
        with pytest.raises(ValueError, match="prime"):
            agl(2, 4)
        with pytest.raises(ValueError):
            agl(0, 5)
        with pytest.raises(ValueError, match="cap"):
            agl(5, 7)  # 16807 points

    def test_cap_is_configurable(self):
        assert agl(2, 101, degree_cap=10201).degree == 10201
        assert AGL_DEGREE_CAP == 10_000


class TestPSL2:
    @pytest.mark.parametrize("q", PSL_PARAMS)
    def test_order_formula(self, q):
        G = psl2(q)
        assert G.degree == q + 1
        assert order(G) == psl2_order(q)

    def test_two_transitive(self):
        for q in [5, 8, 9, 13]:
            assert subdegrees(psl2(q)).subdegrees == (1, q)

    def test_small_isomorphs(self):
        assert order(psl2(4)) == 60
        assert order(psl2(5)) == 60
        assert order(psl2(9)) == 360

    def test_range_errors(self):
        with pytest.raises(ValueError):
            psl2(3)
        with pytest.raises(ValueError, match="prime power"):
            psl2(12)
        with pytest.raises(ValueError):
            psl2(2048)


class TestControls:
    def test_cyclic(self):
        assert order(cyclic(12)) == 12
        assert is_primitive(cyclic(5))
        assert not is_primitive(cyclic(6))
        with pytest.raises(ValueError):
            cyclic(1)

    def test_dihedral(self):
        assert order(dihedral(4)) == 8
        assert order(dihedral(12)) == 24
        with pytest.raises(ValueError):
            dihedral(2)

    def test_dihedral_4_blocks(self):
        bs = minimal_block_system(dihedral(4), (0, 2))
        assert bs.blocks == ((0, 2), (1, 3))

    def test_cyclic_6_blocks(self):
        bs = minimal_block_system(cyclic(6), (0, 3))
        assert bs.blocks == ((0, 3), (1, 4), (2, 5))


class TestDeterminism:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: psl2(9),
            lambda: agl(2, 3),
            lambda: ksubsets_action(6, 2),
            lambda: partition_action(6, 3),
            lambda: alternating(7),
        ],
    )
    def test_identical_generators_across_calls(self, make):
        a, b = make(), make()
        assert len(a.generators) == len(b.generators)
        for x, y in zip(a.generators, b.generators):
            assert x == y
