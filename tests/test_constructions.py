"""Field arithmetic and the family constructors, against closed forms."""
import hashlib
import json
import random
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest

import subdeg.constructions
import subdeg.groups
from subdeg.analysis import subdegrees
from subdeg.constructions import (
    AGL_DEGREE_CAP,
    MAX_FIELD_SIZE,
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
from subdeg.corpus import FAMILY_BUILDERS, builtin_entries
from subdeg.groups import (
    Bsgs,
    CapExceeded,
    PermGroup,
    contains,
    is_primitive,
    is_transitive,
    minimal_block_system,
    order,
    point_stabilizer,
)
from subdeg.numtheory import prime_factors
from subdeg.perm import Permutation, compose, parse_cycles

from conftest import brute_orbits, full_order

DATA = Path(__file__).resolve().parent / "data"

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

    def test_every_field_matches_the_pinned_table(self):
        # tests/data/finite_fields.json holds (q, modulus, primitive element)
        # for every prime power q <= 1024, and a digest of the exp tables,
        # as built by fast exponentiation with the radical test
        pinned = json.loads((DATA / "finite_fields.json").read_text())
        qs = [q for q in range(2, MAX_FIELD_SIZE + 1) if len(prime_factors(q)) == 1]
        fields = [FiniteField(q) for q in qs]
        assert len(fields) == 198
        assert [[F.q, list(F.modulus), F.primitive_element] for F in fields] == pinned["fields"]
        digest = hashlib.sha256()
        for F in fields:
            digest.update(repr((F.q, F._exp)).encode())
            assert all(F._log[F._exp[i]] == i for i in range(F.q - 1))
        assert digest.hexdigest() == pinned["exp_sha256"]

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
        assert full_order(alternating(n)) == alternating_order(n) == factorial(n) // 2

    def test_alternating_is_even_only(self):
        A5 = alternating(5)
        assert contains(A5, parse_cycles("(1,2,3)", 5))
        assert not contains(A5, parse_cycles("(1,2)", 5))

    def test_alternating_rejects_small(self):
        with pytest.raises(ValueError):
            alternating(2)

    @pytest.mark.parametrize("n,want", [(2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric_order(self, n, want):
        assert full_order(symmetric(n)) == want

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

    def test_degree_cap_is_checked_before_enumerating(self, monkeypatch):
        # C(200,4) = 64,684,950 labels; the spy fails the test if they are listed
        def refuse(*args):
            raise AssertionError("k-subsets enumerated past the cap")

        monkeypatch.setattr(subdeg.constructions, "combinations", refuse)
        with pytest.raises(CapExceeded) as exc:
            ksubsets_action(200, 4)
        assert (exc.value.value, exc.value.cap) == (comb(200, 4), 100_000)

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
        with pytest.raises(ValueError, match="1 < k < n"):
            partition_action(4, 0)  # the range is checked before n % k

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setattr(subdeg.groups, "DEGREE_CAP", 1000)
        with pytest.raises(ValueError, match="cap"):
            partition_action(12, 2)

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
        assert full_order(agl(d, p)) == agl_order(d, p)

    def test_agl_1_5_profile(self):
        G = agl(1, 5)
        assert full_order(G) == 20
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

    def test_cap_is_configurable(self, monkeypatch):
        monkeypatch.setattr(subdeg.constructions, "AGL_DEGREE_CAP", 10201)
        assert agl(2, 101).degree == 10201
        assert AGL_DEGREE_CAP == 10_000


class TestPSL2:
    @pytest.mark.parametrize("q", PSL_PARAMS)
    def test_order_formula(self, q):
        G = psl2(q)
        assert G.degree == q + 1
        assert full_order(G) == psl2_order(q)

    def test_two_transitive(self):
        for q in [5, 8, 9, 13]:
            assert subdegrees(psl2(q)).subdegrees == (1, q)

    def test_small_isomorphs(self):
        assert full_order(psl2(4)) == 60
        assert full_order(psl2(5)) == 60
        assert full_order(psl2(9)) == 360

    def test_range_errors(self):
        with pytest.raises(ValueError):
            psl2(3)
        with pytest.raises(ValueError, match="prime power"):
            psl2(12)
        with pytest.raises(ValueError):
            psl2(2048)


class TestControls:
    def test_cyclic(self):
        assert full_order(cyclic(12)) == 12
        assert is_primitive(cyclic(5))
        assert not is_primitive(cyclic(6))
        with pytest.raises(ValueError):
            cyclic(1)

    def test_dihedral(self):
        assert full_order(dihedral(4)) == 8
        assert full_order(dihedral(12)) == 24
        with pytest.raises(ValueError):
            dihedral(2)

    def test_dihedral_4_blocks(self):
        bs = minimal_block_system(dihedral(4), (0, 2))
        assert bs.blocks == ((0, 2), (1, 3))

    def test_cyclic_6_blocks(self):
        bs = minimal_block_system(cyclic(6), (0, 3))
        assert bs.blocks == ((0, 3), (1, 4), (2, 5))


class TestDegreeCap:
    @pytest.mark.parametrize("build", [alternating, symmetric, cyclic, dihedral])
    def test_natural_degree_is_capped_before_allocation(self, build, monkeypatch):
        # the cap load_group applies, so construct never writes a file it refuses
        def refuse(*args):
            raise AssertionError("a permutation built past the cap")

        monkeypatch.setattr(subdeg.constructions, "Permutation", refuse)
        with pytest.raises(CapExceeded) as exc:
            build(300_000)
        assert (exc.value.what, exc.value.value, exc.value.cap) == ("degree", 300_000, 100_000)

    @pytest.mark.parametrize("build", [alternating, symmetric, cyclic, dihedral])
    def test_cap_is_the_live_module_constant(self, build, monkeypatch):
        monkeypatch.setattr(subdeg.groups, "DEGREE_CAP", 50)
        assert build(50).degree == 50
        with pytest.raises(CapExceeded, match="degree 51 exceeds cap 50"):
            build(51)


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

    # SHA-256 over each group's label, degree and generator images, recorded
    # before the images were built from tables: every generator keeps its bytes
    @pytest.mark.parametrize(
        "build, digest",
        [
            pytest.param(
                lambda: [FAMILY_BUILDERS[fam](*params) for _, (fam, params) in builtin_entries()],
                "0a094b00d54e0683442a68b2031120aee4d498257d62d1baeda5e29ed88f1c77",
                id="builtin",
            ),
            pytest.param(  # every prime power 4 <= q <= 1024, degrees up to 1025
                lambda: [psl2(q) for q in range(4, 1025) if len(prime_factors(q)) == 1],
                "20e7515cb043969f34c3e58d4c3d52b1fe6dd298613cf7057bf3f27489c0a7c5",
                id="psl2-to-1024",
            ),
            pytest.param(
                lambda: [partition_action(*nk) for nk in PINNED_PARTITIONS]
                + [agl(*dp) for dp in PINNED_AGL]
                + [ksubsets_action(*nk) for nk in PINNED_KSUBSETS],
                "46fd04b328cb6daac7a32d262cef9b1181c31047715a42de725baa65deeaebc2",
                id="families",
            ),
        ],
    )
    def test_generators_match_the_pinned_digest(self, build, digest):
        h = hashlib.sha256()
        for G in build():
            h.update(f"{G.label} {G.degree} {len(G.generators)}\n".encode())
            for g in G.generators:
                h.update(repr(list(g.image_seq())).encode())
        assert h.hexdigest() == digest

    def test_every_builtin_generator_is_a_bijection_of_its_degree(self):
        # constructors store the images they compute unchecked (perm._store)
        for name, (fam, params) in builtin_entries():
            G = FAMILY_BUILDERS[fam](*params)
            for g in G.generators:
                assert g.degree == G.degree, name
                assert sorted(g.image_seq()) == list(range(G.degree)), name


PINNED_PARTITIONS = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5), (12, 4)]
PINNED_AGL = [(1, 2), (1, 3), (1, 101), (2, 11), (3, 5), (5, 3), (6, 2), (10, 2), (1, 9973), (4, 7)]
PINNED_KSUBSETS = [(3, 1), (5, 2), (11, 4), (13, 6), (20, 3), (30, 2), (17, 8)]


def alternating_under_sym_bound(n: int) -> PermGroup:
    """Alt(n) with the bound n!, twice its order: out of reach, so the random
    draws end on 30 trivial ones and `_close` completes the chain."""
    G = alternating(n)
    G._order_bound = factorial(n)
    return G


EDGE_BUILDS = [
    (alternating, (3,)),
    (alternating, (4,)),
    (symmetric, (2,)),
    (symmetric, (3,)),
    (cyclic, (2,)),
    (dihedral, (3,)),
    (agl, (1, 2)),
    (partition_action, (4, 2)),
    (alternating_under_sym_bound, (6,)),
]


def _word(gens, rng: random.Random, length: int = 12):
    w = gens[0]
    for _ in range(length):
        w = compose(w, gens[int(rng.random() * len(gens))])
    return w


class TestOrderBound:
    """Each constructor hands Schreier-Sims its closed-form order as an upper
    bound, and the chain sifts seeded random elements until its basic orbit
    lengths multiply to it; that chain must be complete."""

    @pytest.mark.parametrize(
        "build, params",
        [(FAMILY_BUILDERS[fam], params) for _, (fam, params) in builtin_entries()] + EDGE_BUILDS,
        ids=[name for name, _ in builtin_entries()]
        + [f"{b.__name__}{p}" for b, p in EDGE_BUILDS],
    )
    def test_bounded_chain_is_the_full_chain(self, build, params, monkeypatch):
        G = build(*params)
        bound = G._order_bound
        assert bound is not None
        full = PermGroup(G.degree, G.generators)
        assert full._order_bound is None
        sifts = []  # (start level, sifted to the identity) of each sift
        real_sift = Bsgs._sift

        def spy(c, x, start):
            residue = real_sift(c, x, start)
            sifts.append((start, residue is None))
            return residue

        monkeypatch.setattr(Bsgs, "_sift", spy)
        chain = G.bsgs
        monkeypatch.undo()
        assert chain.order == order(full)
        # the random draws sift from level 0 and `_close` from deeper levels:
        # none of the latter unless the bound is out of reach, and then only
        # after the draws have ended on 30 trivial ones
        starts = [start for start, _ in sifts]
        draws = next((k for k, start in enumerate(starts) if start), len(starts))
        from_gens = Bsgs(G.degree)
        for g in G.generators:
            from_gens._install(g)
        if chain.order < bound:
            assert draws >= 30 and all(trivial for _, trivial in sifts[draws - 30:draws])
            assert 0 not in starts[draws:]
            if build is alternating_under_sym_bound:
                assert starts[draws:]
        elif from_gens.order == bound:
            assert starts == []
        else:
            assert starts and set(starts) == {0}
        # every level's orbit is that of its base point under its own
        # generators, which fix the base points above it and lie in the
        # level above: the product of the orbit lengths bounds |G| from below
        for i, lv in enumerate(chain.levels):
            assert all(g(b) == b for g in lv.gens for b in chain.base[:i])
            if i:
                assert set(lv.gens) <= set(chain.levels[i - 1].gens)
            want = next(o for o in brute_orbits(lv.gens, G.degree) if lv.point in o)
            assert sorted(lv.orbit()) == list(want)
        # sift agrees with the bound-free chain on members and on their
        # products with a transposition, a member only of some groups
        rng = random.Random(7)
        swap = Permutation([1, 0, *range(2, G.degree)])
        for _ in range(10):
            w = _word(G.generators, rng)
            assert chain.sift(w) is None and full.bsgs.sift(w) is None
            t = compose(w, swap)
            assert (chain.sift(t) is None) == (full.bsgs.sift(t) is None)

    def test_bound_is_only_an_upper_bound(self):
        # Alt(4) acts on the 3 pair partitions through its quotient by the
        # Klein four-group: the bound 4!/2 = 12 is never reached
        G = partition_action(4, 2)
        assert G._order_bound == 12
        assert order(G) == 3

    def test_bound_the_product_passes_falls_back_to_the_full_run(self):
        # not an upper bound on |G| = 60: the random draws pass 7 and stop,
        # and `_close` completes the chain
        G = PermGroup(5, alternating(5).generators)
        G._order_bound = 7
        assert order(G) == 60

    def test_point_stabilizer_carries_no_bound(self):
        G = alternating(6)
        assert point_stabilizer(G, 0)._order_bound is None


def test_argument_errors():
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        FiniteField(4).inv(0)
    with pytest.raises(ValueError, match="symmetric needs n >= 2, got 1"):
        symmetric(1)
    with pytest.raises(ValueError, match="1 is not prime"):
        agl(1, 1)
