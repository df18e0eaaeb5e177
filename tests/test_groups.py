"""Group engine: chains, orbits, stabilizers, cosets, blocks, searches.

Expected numbers are frozen from the brute-force oracles in conftest.py
(Cayley closure, element filtering, partition refinement), which the
production code must reproduce.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    brute_blocks,
    brute_orbits,
    brute_stabilizer,
    closure_elements,
    full_order,
    make_group,
)
import subdeg.analysis
import subdeg.corpus
import subdeg.groups
from subdeg.analysis import subdegrees
from subdeg.constructions import (
    agl,
    alternating,
    cyclic,
    dihedral,
    ksubsets_action,
    partition_action,
    psl2,
    symmetric,
)
from subdeg.corpus import analyze, fixture_path, load_group
from subdeg.numtheory import is_prime
from subdeg.perm import Permutation, compose, format_cycles, inverse, parse_cycles
from subdeg.groups import (
    Bsgs,
    CapExceeded,
    PermGroup,
    coset_action,
    contains,
    elements,
    fixed_points,
    is_primitive,
    is_subgroup,
    is_transitive,
    minimal_block_system,
    orbit,
    orbits,
    order,
    point_stabilizer,
    schreier_sims,
    sylow_subgroup_small,
)


def a5():
    return make_group(5, "(1,2,3,4,5)", "(1,2,3)", label="a5")


def s4():
    return make_group(4, "(1,2,3,4)", "(1,2)", label="s4")


def d4():
    return make_group(4, "(1,2,3,4)", "(1,3)", label="d4")


def c6():
    return make_group(6, "(1,2,3,4,5,6)", label="c6")


def test_permgroup_normalizes_generators():
    ident = Permutation.identity(3)
    g = parse_cycles("(1,2)", 3)
    G = PermGroup(3, [ident, g, g])
    assert G.generators == (g,)
    with pytest.raises(ValueError):
        PermGroup(3, [Permutation.identity(4)])


def test_order_matches_closure_oracle():
    for G, expected in [(a5(), 60), (s4(), 24), (d4(), 8), (c6(), 6)]:
        oracle = len(closure_elements(G.degree, G.generators))
        assert oracle == expected
        assert order(G) == expected


def test_trivial_group():
    G = PermGroup(4, [])
    assert order(G) == 1
    assert elements(G) == [Permutation.identity(4)]
    assert not is_transitive(G)


ORBIT_GROUPS = {
    "two-orbits-and-a-fixed-point": lambda: make_group(6, "(1,2,3)", "(4,5)"),
    "trivial-431": lambda: PermGroup(431, []),  # 431 singleton orbits
    "j1-point-stabilizer": lambda: point_stabilizer(_fresh_j1(), 0),  # degree 266
    # each generator fixes points another moves, and 4, 5, 6, 9, 12 are fixed by all
    "generators-fix-points": lambda: make_group(12, "(1,2,3)(7,8)", "(2,3)", "(10,11)"),
}


def test_orbit_and_schreier_vector():
    for name, make in ORBIT_GROUPS.items():
        G = make()
        listed = orbits(G)
        assert listed == [orbit(G, orb[0])[0] for orb in listed], name
        assert [set(o) for o in listed] == [set(o) for o in brute_orbits(G.generators, G.degree)], name
        for orb in listed:
            _, vec = orbit(G, orb[0])
            assert set(vec) == set(orb)
            # walking the vector reconstructs a word mapping the seed to each point
            for pt in orb:
                x = pt
                word = []
                while vec[x][0] != -1:
                    gi, prev = vec[x]
                    word.append(gi)
                    x = prev
                g = Permutation.identity(G.degree)
                for gi in reversed(word):
                    g = compose(g, G.generators[gi])
                assert g(orb[0]) == pt


def test_bsgs_invariants():
    for G in [a5(), s4(), d4(), c6()]:
        b = G.bsgs
        levels = b.levels
        # order is the product of fundamental orbit sizes
        prod = 1
        for lv in levels:
            prod *= len(lv.orbit_list)
        assert prod == b.order
        # every strong generator sifts to the identity
        for g in b.strong_generators:
            assert b.sift(g) is None
        # deeper strong generators fix the earlier base points
        for i, lv in enumerate(levels):
            assert b.base[i] in lv.schreier


def test_bsgs_deterministic():
    b1 = schreier_sims(a5())
    b2 = schreier_sims(a5())
    assert b1.base == b2.base
    assert b1.strong_generators == b2.strong_generators
    assert [lv.orbit_list for lv in b1.levels] == [lv.orbit_list for lv in b2.levels]
    assert [lv.schreier for lv in b1.levels] == [lv.schreier for lv in b2.levels]


def test_contains_agrees_with_enumeration():
    G = s4()
    elems = set(closure_elements(4, G.generators))
    assert len(elems) == 24
    for p in elems:
        assert contains(G, p)
    A4 = make_group(4, "(1,2,3)", "(2,3,4)")
    for p in closure_elements(4, A4.generators):
        assert contains(G, p)
    odd = parse_cycles("(1,2)", 4)
    assert contains(G, odd)
    H = make_group(4, "(1,2,3)")
    assert not contains(H, odd)
    with pytest.raises(ValueError):
        contains(G, Permutation.identity(5))


def test_elements_matches_closure_and_cap(monkeypatch):
    G = a5()
    got = elements(G)
    assert len(got) == 60
    assert len(set(got)) == 60
    assert set(got) == set(closure_elements(5, G.generators))
    monkeypatch.setattr(subdeg.groups, "ELEMENTS_CAP", 30)
    with pytest.raises(CapExceeded) as exc:
        elements(G)
    assert exc.value.value == 60
    assert exc.value.cap == 30
    monkeypatch.setattr(subdeg.groups, "ELEMENTS_CAP", 60)
    assert len(elements(G)) == 60  # an order equal to the cap is listed


def test_point_stabilizer_a5():
    G = a5()
    stab = point_stabilizer(G, 0)
    assert order(stab) == 12
    oracle = brute_stabilizer(closure_elements(5, G.generators), 0)
    assert len(oracle) == 12
    assert set(elements(stab)) == set(oracle)
    for pt in range(5):
        assert order(point_stabilizer(G, pt)) == 12


def test_point_stabilizer_intransitive_point():
    G = make_group(6, "(1,2,3)", "(4,5)")
    stab = point_stabilizer(G, 3)
    assert order(stab) == 3
    assert all(g(3) == 3 for g in elements(stab))
    # a point fixed by the whole group stabilizes nothing away
    assert order(point_stabilizer(G, 5)) == 6
    with pytest.raises(ValueError, match="^point 6 out of range for degree 6$"):
        point_stabilizer(G, 6)


def test_orbit_stabilizer_identity():
    for G in [a5(), s4(), d4(), c6(), make_group(6, "(1,2,3)", "(4,5)")]:
        for pt in range(G.degree):
            orb, _ = orbit(G, pt)
            assert len(orb) * order(point_stabilizer(G, pt)) == order(G)


def test_coset_action_petersen():
    # A5 on the cosets of S3 = <(1,2,3),(1,2)(4,5)>: degree 10, rank 3
    G = a5()
    H = make_group(5, "(1,2,3)", "(1,2)(4,5)")
    assert order(H) == 6
    K, reps = coset_action(G, H)
    assert K.degree == 10
    assert len(reps) == 10
    assert order(K) == 60
    assert is_transitive(K)
    # transversal really is one representative per coset
    helems = set(closure_elements(5, H.generators))
    cosets = [frozenset(compose(h, r) for h in helems) for r in reps]
    assert len(set(cosets)) == 10
    # coset 0 is H itself and its representative is the identity
    assert reps[0].is_identity()


def test_coset_action_regular():
    # cosets of the trivial subgroup: the regular action
    G = make_group(3, "(1,2,3)")
    K, reps = coset_action(G, PermGroup(3, []))
    assert K.degree == 3
    assert order(K) == 3


def test_coset_action_cap_and_subgroup_errors(monkeypatch):
    G = a5()
    H = make_group(5, "(1,2,3)", "(1,2)(4,5)")
    monkeypatch.setattr(subdeg.groups, "DEGREE_CAP", 5)
    with pytest.raises(CapExceeded) as exc:
        coset_action(G, H)
    assert exc.value.value == 10
    not_sub = make_group(5, "(1,2)")
    with pytest.raises(ValueError, match="not a subgroup"):
        coset_action(G, not_sub)


def test_minimal_block_system_d4():
    G = d4()
    bs = minimal_block_system(G, (0, 2))
    assert bs.blocks == ((0, 2), (1, 3))
    assert bs.block_of == (0, 1, 0, 1)
    assert bs.num_blocks == 2
    oracle = brute_blocks(closure_elements(4, G.generators), 4, (0, 2))
    assert list(bs.blocks) == oracle


def test_minimal_block_system_c6():
    G = c6()
    assert minimal_block_system(G, (0, 3)).blocks == ((0, 3), (1, 4), (2, 5))
    assert minimal_block_system(G, (0, 2)).blocks == ((0, 2, 4), (1, 3, 5))
    assert minimal_block_system(G, (0, 1)).num_blocks == 1


def test_minimal_block_system_matches_oracle_randomly():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            gens.append(Permutation(list(rng.permutation(n))))
        G = PermGroup(n, gens)
        if not is_transitive(G):
            continue
        elems = closure_elements(n, G.generators)
        a, b = 0, int(rng.integers(1, n))
        got = minimal_block_system(G, (a, b))
        assert list(got.blocks) == brute_blocks(elems, n, (a, b))


def test_minimal_block_system_errors():
    with pytest.raises(ValueError, match="transitive"):
        minimal_block_system(make_group(6, "(1,2,3)", "(4,5)"), (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        minimal_block_system(c6(), (2, 2))
    with pytest.raises(ValueError, match="range"):
        minimal_block_system(c6(), (0, 6))
    # either point equal to the degree, on an intransitive group, where a
    # pair let through would fail for intransitivity instead
    for pair in ((6, 0), (0, 6)):
        with pytest.raises(ValueError, match="^seed pair out of range$"):
            minimal_block_system(make_group(6, "(1,2,3)", "(4,5)"), pair)


def test_is_primitive():
    assert is_primitive(a5())
    assert is_primitive(s4())
    assert is_primitive(make_group(2, "(1,2)"))
    assert not is_primitive(d4())
    assert not is_primitive(c6())
    assert not is_primitive(make_group(6, "(1,2,3)", "(4,5)"))  # intransitive
    assert not is_primitive(PermGroup(1, []))  # degree 1 by convention
    # cyclic of prime order is primitive
    assert is_primitive(make_group(5, "(1,2,3,4,5)"))
    # dihedral of prime degree is primitive, composite degree is not
    assert is_primitive(make_group(5, "(1,2,3,4,5)", "(2,5)(3,4)"))


@pytest.mark.parametrize(
    "G",
    [
        a5(),
        s4(),
        d4(),
        c6(),
        make_group(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"),  # D6
        make_group(6, "(1,2,3)", "(1,4)(2,5)(3,6)"),  # S3 wr C2
        make_group(6, "(1,2)", "(1,3,5)(2,4,6)"),  # C2 wr C3
        make_group(5, "(1,2,3,4,5)", "(2,5)(3,4)"),
    ],
    ids=["a5", "s4", "d4", "c6", "d6", "s3wrc2", "c2wrc3", "d5"],
)
def test_analyze_primitivity_at_every_point(G):
    # analyze probes the suborbits of its own base point
    n = G.degree
    blockless = all(len(brute_blocks(G.generators, n, (0, x))) == 1 for x in range(1, n))
    assert [analyze(G, pt).primitive for pt in range(n)] == [blockless] * n


def test_sylow_subgroup_small():
    A = a5()
    for p, expected in [(2, 4), (3, 3), (5, 5), (7, 1)]:
        P = sylow_subgroup_small(A, p)
        assert order(P) == expected
    S = s4()
    assert order(sylow_subgroup_small(S, 2)) == 8
    assert order(sylow_subgroup_small(S, 3)) == 3
    with pytest.raises(ValueError, match="prime"):
        sylow_subgroup_small(S, 6)
    # the result is a p-group inside G
    P = sylow_subgroup_small(S, 2)
    assert is_subgroup(P, S)
    assert all(g.order() in (1, 2, 4) for g in elements(P))


def test_fixed_points():
    G = make_group(6, "(1,2,3)")
    assert fixed_points(G) == (3, 4, 5)
    assert fixed_points(a5()) == ()


def test_subdegree_profile_via_coset_action_matches():
    # the stabilizer coset action reproduces the natural action's orbit sizes
    G = a5()
    H = point_stabilizer(G, 0)
    K, _ = coset_action(G, H)
    assert K.degree == 5
    suborbit_sizes = sorted(len(o) for o in brute_orbits(list(K.generators), 5))
    assert suborbit_sizes == sorted(len(o) for o in brute_orbits(list(G.generators), 5))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_order_and_membership_match_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    k = data.draw(st.integers(min_value=1, max_value=3))
    gens = [
        Permutation(list(data.draw(st.permutations(range(n)))))
        for _ in range(k)
    ]
    G = PermGroup(n, gens)
    elems = closure_elements(n, G.generators)
    assert order(G) == len(elems)
    member_set = set(elems)
    probe = Permutation(list(data.draw(st.permutations(range(n)))))
    assert contains(G, probe) == (probe in member_set)
    # stabilizers at every point: conjugated from the cached chain inside
    # the first base point's orbit, rebuilt outside it
    stabs = [brute_stabilizer(elems, pt) for pt in range(n)]
    for pt in range(n):
        assert set(elements(point_stabilizer(G, pt))) == set(stabs[pt])
    if not is_transitive(G):
        assert not is_primitive(G)
        return
    for pt in range(n):
        orbs = brute_orbits(stabs[pt], n)
        want = sorted(((o[0], len(o)) for o in orbs), key=lambda t: (t[1], t[0]))
        profile = subdegrees(G, pt)
        assert profile.suborbits == tuple(want)
        assert sum(profile.subdegrees) == n
        assert all(len(stabs[pt]) % d == 0 for d in profile.subdegrees)
        assert len(elems) == n * len(stabs[pt])
    blockless = all(len(brute_blocks(G.generators, n, (0, x))) == 1 for x in range(1, n))
    assert is_primitive(G) == blockless
    # analyze probes the suborbits at its own point
    for pt in range(n):
        assert analyze(G, pt).primitive == blockless


def _spy(monkeypatch, name: str) -> list:
    """Record the calls made to subdeg.groups.<name> while the test runs,
    also where subdeg.analysis and subdeg.corpus import it."""
    calls = []
    real = getattr(subdeg.groups, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (subdeg.groups, subdeg.analysis, subdeg.corpus):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)
    return calls


def _fresh_j1() -> PermGroup:
    # loading verifies the order, which caches a chain; start without one
    G = load_group(fixture_path("j1_266.json"))
    return PermGroup(G.degree, G.generators, label=G.label)


def test_is_primitive_probes_once_per_suborbit(monkeypatch):
    # one probe per non-trivial suborbit that could lie in a proper block:
    # 1 + 132 = 266/2, while 1 + 11, 1 + 12 or 1 + 110 plus any sum of the
    # other lengths hits no divisor of 266 up to 133. It probed all four
    # suborbits, of sizes 11, 12, 110 and 132, before the lengths filtered
    G = _fresh_j1()
    probes = _spy(monkeypatch, "_pair_spans_all")
    assert is_primitive(G)
    stab = point_stabilizer(G, 0)
    probed = sorted(len(orbit(stab, pair[1])[0]) for _, pair in probes)
    assert probed == [132]


def test_is_primitive_regular_group_needs_no_probe(monkeypatch):
    probes = _spy(monkeypatch, "_pair_spans_all")
    assert is_primitive(cyclic(997))
    assert not is_primitive(cyclic(998))
    assert probes == []


def test_is_primitive_prime_degree_needs_no_probe(monkeypatch):
    # dihedral(997) has 498 non-trivial suborbits, one probe each before
    probes = _spy(monkeypatch, "_pair_spans_all")
    assert is_primitive(dihedral(997))
    assert is_primitive(agl(1, 43))
    assert probes == []


def _affine_23_squared_c3() -> PermGroup:
    """23^2:C3 on GF(23)^2, the point (a, b) numbered 23a + b: the
    translations by (1, 0) and (0, 1), and x -> Ax with A = [[0, -1], [1,
    -1]], of order 3, whose characteristic polynomial x^2 + x + 1 is
    irreducible over GF(23), since 3 does not divide 22. So the group is
    primitive, and C3 fixes no non-zero vector: 176 suborbits of length 3."""
    p = 23

    def affine(f):
        images = (f(a, b) for a in range(p) for b in range(p))
        return Permutation([p * (x % p) + y % p for x, y in images])

    maps = [lambda a, b: (a + 1, b), lambda a, b: (a, b + 1), lambda a, b: (-b, a - b)]
    return PermGroup(p * p, [affine(f) for f in maps], label="23^2:C3")


def test_suborbit_lengths_rule_out_every_probe_of_23_squared_c3(monkeypatch):
    # a proper block through 0 would hold 1 + 3k points, k >= 1, and divide
    # 529 = 23^2; the only proper divisor is 23, and 22 is no multiple of 3.
    # It made 176 probes, one per non-trivial suborbit, before the lengths
    # filtered
    G = _affine_23_squared_c3()
    probes = _spy(monkeypatch, "_pair_spans_all")
    report = analyze(G)
    assert probes == []
    assert report.primitive and report.rank == 177
    assert report.subdegrees == (1,) + (3,) * 176
    assert order(G) == 529 * 3


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_filtered_primitivity_agrees_with_probing_every_suborbit(data):
    # transitive groups of degree up to 12, half of their generators
    # permuting the blocks {x : x // d == i} of a divisor d of the degree,
    # so that many are imprimitive
    n = data.draw(st.integers(min_value=1, max_value=12))
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

    def generator():
        if data.draw(st.booleans()):
            return Permutation(list(data.draw(st.permutations(range(n)))))
        blocks = data.draw(st.permutations(range(n // d)))
        inner = [data.draw(st.permutations(range(d))) for _ in range(n // d)]
        return Permutation([blocks[x // d] * d + inner[x // d][x % d] for x in range(n)])

    G = PermGroup(n, [generator() for _ in range(data.draw(st.integers(1, 3)))])
    assume(is_transitive(G))
    suborbits = orbits(point_stabilizer(G, 0))
    probed = n > 1 and all(subdeg.groups._pair_spans_all(G, (0, orb[0])) for orb in suborbits[1:])
    assert is_primitive(G) == probed


def _probe_agrees(G: PermGroup, pair) -> bool:
    return subdeg.groups._pair_spans_all(G, pair) == (minimal_block_system(G, pair).num_blocks == 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pair_probe_agrees_with_the_block_system(data):
    # the probe stops once a class holds more than half the points; half
    # the groups permute the blocks {x : x // d == i} of a divisor d of n
    n = data.draw(st.integers(min_value=2, max_value=10))
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

    def generator():
        if data.draw(st.booleans()):
            return Permutation(list(data.draw(st.permutations(range(n)))))
        blocks = data.draw(st.permutations(range(n // d)))
        inner = [data.draw(st.permutations(range(d))) for _ in range(n // d)]
        return Permutation([blocks[x // d] * d + inner[x // d][x % d] for x in range(n)])

    G = PermGroup(n, [generator() for _ in range(data.draw(st.integers(1, 3)))])
    assume(is_transitive(G))
    pair = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    assert _probe_agrees(G, tuple(pair))


def test_pair_probe_agrees_on_the_builtin_corpus():
    # the pairs is_primitive probes: the point 0 and a point of each suborbit
    for _, (family, params) in subdeg.corpus.builtin_entries():
        G = subdeg.corpus.FAMILY_BUILDERS[family](*params)
        if not is_transitive(G) or G.degree < 2:
            continue
        for orb in orbits(point_stabilizer(G, 0)):
            if orb[0] != 0:
                assert _probe_agrees(G, (0, orb[0])), (family, params, orb[0])


@pytest.mark.parametrize("p", [p for p in range(3, 51) if is_prime(p)])
def test_prime_degree_rule_agrees_with_the_probes(p):
    for G in (dihedral(p), agl(1, p)):
        probed = all(
            minimal_block_system(G, (0, x)).num_blocks == 1 for x in range(1, p)
        )
        assert is_primitive(G) == probed


@pytest.mark.parametrize(
    "make, point",
    [(_fresh_j1, 0), (lambda: alternating(7), 3)],
    ids=["j1", "alt7-point3"],
)
def test_analyze_builds_one_chain(monkeypatch, make, point):
    G = make()
    chains = _spy(monkeypatch, "schreier_sims")
    report = analyze(G, point)
    assert report.primitive
    assert len(chains) == 1


def test_sylow_check_builds_one_chain_and_lists_once(monkeypatch):
    # the hypothesis reads Fix(P), which needs no chain for P and no second listing of G
    G = alternating(8)
    chains, listings = _spy(monkeypatch, "schreier_sims"), _spy(monkeypatch, "elements")
    assert subdeg.analysis.sylow_divisibility_check(G, 0, 7).hypothesis_holds
    assert [args[0] for args in chains] == [G]
    assert [args[0] for args in listings] == [G]


def test_stabilizer_bound_builds_chains_for_g_and_n_only(monkeypatch):
    # membership in G_0 is read off G's chain, not a chain of its own
    G = alternating(7)
    chains = _spy(monkeypatch, "schreier_sims")
    N = point_stabilizer(G, 0)
    assert subdeg.analysis.check_stabilizer_normal_bound(G, 0, N).applicable
    assert [args[0] for args in chains] == [G, N]


def test_analyze_makes_one_suborbit_pass(monkeypatch):
    # one orbit walk, which `orbits` lists in full on the point stabilizer
    # and which gives both the subdegrees and the probes. There were two
    # while is_transitive walked G's orbit, which `order` had already built
    # as the chain's level 0. is_transitive is called twice, by analyze and
    # by the subdegrees it reads its profile from, and each call reads that
    # level and walks nothing (it was 0 calls while analyze read the level
    # inline). One probe: the suborbit lengths rule out three of the four
    # (it was 4, one per non-trivial suborbit, before they filtered; see
    # test_is_primitive_probes_once_per_suborbit)
    G = _fresh_j1()
    names = ("is_transitive", "point_stabilizer", "_orbit_walk", "orbits", "_pair_spans_all")
    calls = {name: _spy(monkeypatch, name) for name in names}
    assert analyze(G).primitive
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {
        "is_transitive": 2,
        "point_stabilizer": 1,
        "_orbit_walk": 1,
        "orbits": 1,
        "_pair_spans_all": 1,
    }
    (on_stab,) = (args[0] for args in calls["_orbit_walk"])
    assert on_stab.label == f"{G.label}.stab(0)"
    assert calls["orbits"] == [(on_stab,)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_analyze_reads_transitivity_off_the_chain(data):
    # analyze's is_transitive reads level 0 of the chain that `order`
    # builds, or the degree when there is no level; the oracle is a fresh
    # copy of the group, which has no chain, so its is_transitive walks the
    # orbit of 0. Generators moving drawn subsets leave fixed points
    n = data.draw(st.integers(1, 9))
    gens = []
    for _ in range(data.draw(st.integers(0, 3))):
        support = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        img = list(range(n))
        for x, y in zip(support, data.draw(st.permutations(support))):
            img[x] = y
        gens.append(Permutation(img))
    G = PermGroup(n, gens)
    point = data.draw(st.integers(0, n - 1))
    fresh = PermGroup(n, gens)
    walked = is_transitive(fresh)
    assert fresh._bsgs is None
    assert analyze(G, point).transitive == walked
    assert G._bsgs is not None and is_transitive(G) == walked


def test_analyze_transitivity_on_edge_cases():
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "intransitive.json")
    cases = [
        (PermGroup(1, []), True),  # no level, and the one point is every point
        (PermGroup(3, []), False),  # no level, three points
        (make_group(4, "(1,2)"), False),  # fixed points
        (make_group(5, "(1,2,3,4,5)"), True),
        (load_group(golden), False),  # C2 x C3 on 2 + 3 points
    ]
    for G, want in cases:
        assert is_transitive(PermGroup(G.degree, G.generators)) == want  # walks
        assert analyze(G).transitive == want
        assert is_transitive(G) == want  # reads the chain analyze built


def test_a_cached_chain_answers_transitivity(monkeypatch):
    # with G's chain cached, is_primitive and subdegrees each walk only the
    # point stabilizer's orbits; each also walked G's orbit, which the
    # chain's level 0 already holds, while is_transitive always walked
    G = _fresh_j1()
    order(G)
    walks = _spy(monkeypatch, "_orbit_walk")
    assert is_primitive(G)
    assert [args[0].label for args in walks] == [f"{G.label}.stab(0)"]
    walks.clear()
    assert subdegrees(G).subdegrees == (1, 11, 12, 110, 132)
    assert [args[0].label for args in walks] == [f"{G.label}.stab(0)"]


def test_each_strong_generator_is_inverted_once(monkeypatch):
    # Bsgs._install builds each generator's inverse table beside its table,
    # and every level it joins shares it; no walk inverts a generator again
    G = _fresh_j1()
    inversions = []
    real = subdeg.groups._inv

    def spy(x):
        inversions.append(x)
        return real(x)

    monkeypatch.setattr(subdeg.groups, "_inv", spy)
    assert order(G) == 175560
    strong = G.bsgs.strong_generators
    assert len(inversions) == len(strong) == 6
    assert [x.tobytes() for x in inversions] == [g._img.tobytes() for g in strong]
    for lv in G.bsgs.levels:
        assert len(lv.inv_tables) == len(lv.gens)
        for g, t in zip(lv.gens, lv.inv_tables):
            assert compose(g, subdeg.perm._wrap(t[: G.degree])).is_identity()


def _count_sifts(monkeypatch) -> list:
    # the image-level sift, which both Bsgs.sift and Bsgs._close reach
    calls = []
    real = subdeg.groups.Bsgs._sift

    def spy(self, x, start):
        calls.append(start)
        return real(self, x, start)

    monkeypatch.setattr(subdeg.groups.Bsgs, "_sift", spy)
    return calls


def test_known_order_chain_stops_early(monkeypatch):
    # the random chain stops once its orbit lengths multiply to the known
    # order: 5 draws, all from level 0, where the deterministic run that
    # stopped at the order sifted 481 Schreier generators, and the full
    # run 3,930. It took 6 draws while each install rebuilt the orbits from
    # their base points; grown orbits keep other trees, so other residues
    G = partition_action(9, 3)
    sifts = _count_sifts(monkeypatch)
    assert order(G) == 181440
    assert sifts == [0] * 5


def test_symmetric_100_chain_is_random(monkeypatch):
    # 157 draws, all from level 0: the chain is complete at 100! with no
    # deterministic pass. It took 138 while each install rebuilt the orbits
    # from their base points; grown orbits keep other trees, so other
    # residues. The chain itself took 1.1-1.3 s CPU then and 0.07-0.13 s now
    G = symmetric(100)
    sifts = _count_sifts(monkeypatch)
    assert order(G) == factorial(100)
    assert sifts == [0] * 157


def test_no_level_drops_a_tree_edge_or_a_memo(monkeypatch):
    # both chains grow each level's orbit in place after an install and keep
    # every Schreier tree edge and transversal memo. The deterministic chain
    # used to rebuild a level's Schreier vector from its base point and empty
    # its memos whenever the level gained generators: 34 times on the
    # bound-free ksubsets(10,3); the random chain did so 15 times on
    # partitions(9,3) before it grew its orbits
    kept = {}  # level -> its edges and memos when last seen
    grown = []
    real = subdeg.groups._Level.orbit

    def check(lv):
        edges, trans, trans_inv = kept.get(lv, ({}, {}, {}))
        assert all(lv.schreier.get(x) == e for x, e in edges.items())
        for old, new in ((trans, lv.trans), (trans_inv, lv.trans_inv)):
            assert all(new.get(x) is u for x, u in old.items())
        kept[lv] = (dict(lv.schreier), dict(lv.trans), dict(lv.trans_inv))

    def spy(self):
        check(self)
        if self.orbit_gens != len(self.gens) and (len(self.trans) > 1 or len(self.trans_inv) > 1):
            # a grow with memos to keep; the random path's sifts read only
            # inverses, which build no forward representative
            grown.append(self)
        out = real(self)
        check(self)
        return out

    monkeypatch.setattr(subdeg.groups._Level, "orbit", spy)
    for G in (_fresh_j1(), _bound_free_ksubsets(), partition_action(9, 3)):
        grown.clear()
        order(G)
        for lv in G.bsgs.levels:
            check(lv)
        assert grown


def test_trivial_group_with_a_bound_out_of_reach_draws_nothing():
    # no generator to fill the product-replacement slots from: the random
    # path gives up at once and `_close` has nothing to do
    G = PermGroup(2, [])
    G._order_bound = 2
    assert order(G) == 1


def test_transversal_is_built_only_where_read():
    # built eagerly, the final levels would hold 317 entries beyond their
    # base points and as many inverses. The draws read 54 of them, and the
    # levels keep them as their orbits grow; they held 0 when each install
    # rebuilt the orbits and emptied the memos, and 64 while each inverse
    # was built by inverting its forward representative, which the walk
    # memoized along the way although no sift reads it
    G = partition_action(9, 3)
    assert order(G) == 181440
    held = sum(len(lv.trans) + len(lv.trans_inv) - 2 for lv in G.bsgs.levels)
    assert held == 54


def test_deep_schreier_tree_is_walked_without_recursion():
    # the orbit of 0 under one 2003-cycle is a path of Schreier tree edges
    G = cyclic(2003)
    assert G.degree > sys.getrecursionlimit()
    g = G.generators[0]
    g2000 = inverse(compose(compose(g, g), g))
    assert g2000(0) == 2000
    assert contains(G, g)
    assert contains(G, g2000)
    # the sift reads the inverse at 2000, built along its path from the
    # inverses alone: 2,000 memos beyond the base point, all inverses. It
    # held 2,002 while each inverse inverted its forward representative,
    # whose walk memoized the same path
    assert [(len(lv.trans), len(lv.trans_inv)) for lv in G.bsgs.levels] == [(1, 2001)]
    assert not contains(G, Permutation([1, 0, *range(2, 2003)]))
    assert order(point_stabilizer(G, 2002)) == 1


def test_chain_hands_out_read_only_arrays_above_255():
    # the chain multiplies writable arrays internally; what leaves it is frozen
    n = 300
    G = PermGroup(n, [Permutation([*range(1, n), 0]), Permutation([(-x) % n for x in range(n)])])
    assert order(G) == 2 * n
    perms = [lv.rep(x, inv) for lv in G.bsgs.levels for x in lv.orbit() for inv in (False, True)]
    perms += point_stabilizer(G, 290).generators
    residue = G.bsgs.sift(Permutation([1, 0, *range(2, n)]))
    assert residue is not None
    perms.append(residue)
    for p in perms:
        assert p.images.dtype == np.int64
        assert not p.images.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contains_matches_the_element_list(data):
    # on both sides of 255, where the stored images change form; the
    # generators move at most 6 points, so the element list stays small
    n = data.draw(st.sampled_from([8, 300]))
    support = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6, unique=True))

    def on_support(pts):
        img = list(range(n))
        for x, y in zip(pts, data.draw(st.permutations(pts))):
            img[x] = y
        return Permutation(img)

    gens = [on_support(support) for _ in range(data.draw(st.integers(1, 3)))]
    G = PermGroup(n, gens)
    elems = closure_elements(n, G.generators)
    assert order(G) == len(elems)
    members = set(elems)
    extra = data.draw(st.integers(0, n - 1))
    probes = [data.draw(st.sampled_from(elems)), on_support(support), on_support([*{*support, extra}])]
    for p in probes:
        assert contains(G, p) == (p in members)


def test_is_transitive_stops_after_the_first_orbit(monkeypatch):
    # one transposition on 100,000 points has 99,999 orbits; is_transitive
    # reads the first and stops. It listed all of them, at 37 ms against
    # 2.0 ms, while it counted the orbits that `orbits` lists. is_primitive
    # answers off the same walk: a chain, which would read transitivity
    # off its level 0, is not built first (on S40 with one fixed point the
    # walk takes under 0.1 ms CPU, the chain about 0.1 s)
    yielded = []
    real = subdeg.groups._orbit_walk

    def spy(G):
        for orb in real(G):
            yielded.append(orb)
            yield orb

    monkeypatch.setattr(subdeg.groups, "_orbit_walk", spy)
    n = 100_000
    G = PermGroup(n, [Permutation([1, 0, *range(2, n)])])
    assert not is_transitive(G)
    assert yielded == [(0, 1)]
    yielded.clear()
    assert not is_primitive(G)
    assert yielded == [(0, 1)] and G._bsgs is None
    yielded.clear()
    assert is_transitive(cyclic(12))
    assert yielded == [tuple(range(12))]
    yielded.clear()
    assert len(orbits(PermGroup(5, [Permutation([1, 0, 2, 4, 3])]))) == 3
    assert len(yielded) == 3


def test_base_prefix_keeps_the_first_of_each_point():
    assert Bsgs(5, (3, 1, 3, 0, 1)).base == (3, 1, 0)
    with pytest.raises(ValueError, match="base point 5 out of range"):
        Bsgs(5, (0, 5))
    # linear in the prefix: about 0.2 s, where the quadratic scan over the
    # levels built so far took tens of seconds
    start = time.perf_counter()
    assert len(Bsgs(20_000, [*range(20_000), *range(20_000)]).levels) == 20_000
    assert time.perf_counter() - start < 5


def test_file_loaded_group_keeps_the_full_verification(monkeypatch):
    # a work bound: a scan of every generator at every level sifts 550. It
    # was 664 (1,865 for the full scan) while each install rebuilt the
    # levels' orbits and each rescan sifted again the Schreier generators
    # already known to be members; grown orbits keep the tree, and
    # `_close` skips the known members
    G = _fresh_j1()
    sifts = _count_sifts(monkeypatch)
    assert order(G) == 175560
    assert len(sifts) == 183


def _bound_free_ksubsets() -> PermGroup:
    G = ksubsets_action(10, 3)
    return PermGroup(G.degree, G.generators)


def test_levels_form_schreier_generators_from_a_prefix(monkeypatch):
    # a scan of every generator at every level sifts 815; here level 0
    # scans 2 of its 18 generators and level 1 all 16 of its own. It was
    # 564 sifts (2,089 for the full scan), with level 0 scanning 2 of 15 and
    # level 1 8 of 13, while each install rebuilt the levels' orbits and
    # each rescan sifted the known members again; the other trees give
    # other residues
    G = _bound_free_ksubsets()
    sifts = _count_sifts(monkeypatch)
    assert order(G) == 1814400
    assert len(sifts) == 198
    scanned = [(lv.scan, len(lv.gens)) for lv in G.bsgs.levels]
    assert scanned[:2] == [(2, 18), (16, 16)]


def test_rescans_skip_schreier_generators_known_to_be_members(monkeypatch):
    # a work bound: bound-free S40 from (1,2) and a 40-cycle. Re-sifting the
    # members that each rescan meets again takes 365,529 sifts on the same
    # chain; 146,965 while each install rebuilt the levels' orbits
    G = PermGroup(40, [Permutation([1, 0, *range(2, 40)]), Permutation([*range(1, 40), 0])])
    sifts = _count_sifts(monkeypatch)
    assert order(G) == factorial(40)
    assert len(sifts) == 9323


def test_rescans_resume_where_the_scan_stopped(monkeypatch):
    # a work bound on the multiplications that form Schreier generators,
    # sift them and build representatives: the same 9,323 sifts on
    # bound-free S40 take 93,393 image products. There were 767,579 while
    # each rescan re-formed every earlier Schreier generator of its level
    # only to find it a tree edge, the identity or a known member. The
    # products were counted on `groups._mul` until the chain multiplied
    # through its kernel's `then`, one call for each of the same products
    products = []
    real = subdeg.groups._kernel

    def spy(degree):
        k = real(degree)

        def then(x, t):
            products.append(None)
            return k.then(x, t)

        return k._replace(then=then)

    G = PermGroup(40, [Permutation([1, 0, *range(2, 40)]), Permutation([*range(1, 40), 0])])
    monkeypatch.setattr(subdeg.groups, "_kernel", spy)
    assert order(G) == factorial(40)
    assert len(products) == 93393


def test_chain_reads_each_generator_image_sequence_once(monkeypatch):
    # above degree 255 image_seq() is a numpy tolist. The chain reads it once
    # per generator, when it installs one, and every level the generator
    # joins shares the list; each level read it again at every orbit growth
    # and at every scan of its Schreier generators
    G = _fresh_j1()
    reads = []
    real = Permutation.image_seq

    def spy(self):
        reads.append(self)
        return real(self)

    monkeypatch.setattr(Permutation, "image_seq", spy)
    assert order(G) == 175560
    assert sorted(map(id, reads)) == sorted(map(id, G.bsgs.strong_generators))


def chain_digest(G: PermGroup) -> str:
    """SHA-256 over G's stabilizer chain: the base, the strong generators,
    and per level its generators, every Schreier tree edge as (point,
    predecessor, generator) and every coset representative with its inverse.
    Generators appear as cycle strings, never as indices, so the digest does
    not depend on how a level numbers its generators."""
    b = G.bsgs
    h = hashlib.sha256()

    def put(*xs):
        h.update(repr(xs).encode())

    put("base", b.base)
    put("strong", [format_cycles(g) for g in b.strong_generators])
    for lv in b.levels:
        orb = lv.orbit()
        put("level", lv.point, [format_cycles(g) for g in lv.gens])
        edges = [
            (x, lv.schreier[x][1], format_cycles(lv.gens[lv.schreier[x][0]]))
            for x in orb
            if x != lv.point
        ]
        put("edges", edges)
        put("reps", [(format_cycles(lv.rep(x)), format_cycles(lv.rep(x, inv=True))) for x in orb])
    return h.hexdigest()


# the dihedral(12) entry was computed when each level still indexed into
# one shared strong generator list; dihedral(12)'s generators already reach
# its order, so it takes no random draw. The other
# constructed groups' entries pin the seeded random chain. They moved when
# its levels began to grow their orbits in place instead of rebuilding them
# after each install: the trees differ, so the residues do. Before that they
# were partitions(9,3) 014349ab…efcbb, agl(3,3) 1d51ba19…9db73, psl2(49)
# ec0c4a4b…bd780, alt(9) 303dda32…ea062 and ksubsets(10,3) 5de4175a…d725a.
# The j1 and bound-free entries pin the deterministic chain. They moved
# when it too began to grow its orbits in place; they were f0129beb…869ab
# and f32e5f52…55014. Skipping known members on a rescan moves neither
CHAIN_DIGESTS = {
    "j1": "f1b9d9f17b6b26ee34fe9e47b1558aee8c6819cb33a3cd8184469c1af359ae94",
    "partitions(9,3)": "38a63e2cc043e607821939959d53fb7bad306d3e0a888e8a6137345a56857550",
    "agl(3,3)": "985d5faa8f306da9c2577b9a7230a2120522a0e160684bb2698b2cc7ae775e0c",
    "psl2(49)": "e23ca7b9e9d267a247cee367895f4a6226dc31969221a5b06f570d4ed0917771",
    "alt(9)": "99b7d1009d4953cdd61e1394cd34f60f5d92964ce1e82698eb4db4a638ad8d68",
    "ksubsets(10,3)": "0831bfcbfe2440c33cc106e8d999865730e3ccd1679f194f5d1565ba1e15652d",
    "dihedral(12)": "648d9059a2f11e6cce9aca9a6df6ebd6bd2f5a5f416fc976f703ebaca738ba78",
    # the deterministic chain of the same generators as ksubsets(10,3)
    "ksubsets(10,3) bound-free": "c73e4d2f03201ab009a5c6473a43eaceebc462aadd42494016d68f0219304865",
}
CHAIN_GROUPS = {
    "j1": lambda: load_group(fixture_path("j1_266.json")),
    "partitions(9,3)": lambda: partition_action(9, 3),
    "agl(3,3)": lambda: agl(3, 3),
    "psl2(49)": lambda: psl2(49),
    "alt(9)": lambda: alternating(9),
    "ksubsets(10,3)": lambda: ksubsets_action(10, 3),
    "dihedral(12)": lambda: dihedral(12),
    "ksubsets(10,3) bound-free": _bound_free_ksubsets,
}


@pytest.mark.parametrize("name", CHAIN_GROUPS)
def test_chain_matches_the_pinned_digest(name):
    assert chain_digest(CHAIN_GROUPS[name]()) == CHAIN_DIGESTS[name]


def _walk_every_time(self):
    """_Level.orbit as it was before a full orbit was skipped: each growth
    walks the orbit again, whether or not it already holds every point its
    level can reach."""
    seqs, grown = self.seqs, self.orbit_gens
    if grown != len(seqs):
        orb, vec = self.orbit_list, self.schreier
        images = list(enumerate(seqs))[grown:]
        old = len(orb)
        for i, a in enumerate(orb):
            if i == old and grown:
                images = list(enumerate(seqs))
            for gi, img in images:
                b = img[a]
                if b not in vec:
                    vec[b] = (gi, a)
                    orb.append(b)
        self.orbit_gens = len(seqs)
    return self.orbit_list


def _bound_free_s40() -> PermGroup:
    return PermGroup(40, [Permutation([1, 0, *range(2, 40)]), Permutation([*range(1, 40), 0])])


def _builtin_groups() -> dict:
    return {name: (lambda f=family, p=params: subdeg.corpus.FAMILY_BUILDERS[f](*p))
            for name, (family, params) in subdeg.corpus.builtin_entries()}


def _chain_record(G: PermGroup, sifts: list) -> tuple:
    """The digest, every level's orbit and Schreier vector in insertion
    order, and the sifts it took to build G's chain."""
    sifts.clear()
    digest = chain_digest(G)
    levels = [(list(lv.orbit_list), list(lv.schreier.items())) for lv in G.bsgs.levels]
    return digest, levels, len(sifts)


def test_skipping_full_orbits_changes_no_chain(monkeypatch):
    # a full orbit gains no point and no tree edge from a walk, so skipping
    # it leaves every chain as it was: the digests, the Schreier vectors in
    # the order they grew, and the sifts (183 on J1, 9,323 on bound-free S40)
    sifts = _count_sifts(monkeypatch)
    groups = {
        "j1": _fresh_j1,
        "S40 bound-free": _bound_free_s40,
        "ksubsets(10,3) bound-free": _bound_free_ksubsets,
        **_builtin_groups(),
    }
    skipped = {name: _chain_record(build(), sifts) for name, build in groups.items()}
    monkeypatch.setattr(subdeg.groups._Level, "orbit", _walk_every_time)
    walked = {name: _chain_record(build(), sifts) for name, build in groups.items()}
    assert skipped == walked
    assert skipped["j1"][0] == CHAIN_DIGESTS["j1"] and skipped["j1"][2] == 183
    assert skipped["S40 bound-free"][2] == 9323
    bound_free = skipped["ksubsets(10,3) bound-free"]
    assert bound_free[0] == CHAIN_DIGESTS["ksubsets(10,3) bound-free"] and bound_free[2] == 198


class _CountedImages:
    """A generator's image sequence that counts the points read from it."""

    def __init__(self, seq, reads: list):
        self.seq, self.reads = seq, reads

    def __getitem__(self, a):
        self.reads[0] += 1
        return self.seq[a]


def _orbit_visits(monkeypatch, orbit, builds) -> tuple[int, int, int]:
    """Run `orbit` as _Level.orbit while every group in builds gets its
    chain: the point visits it makes in all, the growths that start on a
    full orbit, and the visits those make."""
    totals = [0, 0, 0]

    def spy(self):
        seqs = self.seqs
        on_full = self.orbit_gens != len(seqs) and len(self.orbit_list) == self.full
        reads = [0]
        self.seqs = [_CountedImages(seq, reads) for seq in seqs]
        try:
            return orbit(self)
        finally:
            self.seqs = seqs
            totals[0] += reads[0]
            if on_full:
                totals[1] += 1
                totals[2] += reads[0]

    monkeypatch.setattr(subdeg.groups._Level, "orbit", spy)
    for build in builds:
        order(build())
    return tuple(totals)


def test_a_full_level_is_not_walked_again(monkeypatch):
    # a level at depth i holds at most degree - i points, since its
    # generators fix the i base points above it; once its orbit holds them,
    # a growth reads no point. On J1 and the built-in corpus the chains
    # grow full orbits 240 times, and walking them again read 10,277 of the
    # 21,719 points visited
    real = subdeg.groups._Level.orbit
    builds = [CHAIN_GROUPS["j1"], *_builtin_groups().values()]
    assert _orbit_visits(monkeypatch, _walk_every_time, builds) == (21719, 240, 10277)
    assert _orbit_visits(monkeypatch, real, builds) == (11442, 240, 0)


def test_random_chain_does_not_depend_on_the_hash_seed():
    # the draws come from a fixed seed, never from set or hash order
    code = (
        "from test_groups import chain_digest\n"
        "from subdeg.constructions import partition_action\n"
        "print(chain_digest(partition_action(9, 3)))\n"
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.strip())
    assert out == [CHAIN_DIGESTS["partitions(9,3)"]] * 2


class _FullScanBsgs(Bsgs):
    """The reference chain: every level forms Schreier generators from all
    of its generators, whatever level each residue was found at, and a
    rescan after an install starts again at its first pair and sifts every
    Schreier generator it forms, whether seen before or not."""

    def _install(self, g, origin=-1):
        i = super()._install(g)
        for lv in self.levels[: i + 1]:
            lv.scan = len(lv.gens)
        return i

    def _close(self, from_level):
        i = min(from_level, len(self.levels) - 1)
        while i >= 0:
            lv = self.levels[i]
            pairs = [(g, a) for g in lv.gens[: lv.scan] for a in lv.orbit()]
            for g, a in pairs:
                sg = compose(compose(lv.rep(a), g), lv.rep(g(a), inv=True))
                residue = self._sift(sg._img, i + 1)
                if residue is not None:
                    i = self._install(Permutation(list(residue)), i)
                    break
            else:
                i -= 1


def _full_scan_copy(G: PermGroup) -> PermGroup:
    ref = PermGroup(G.degree, G.generators)
    chain = _FullScanBsgs(G.degree)
    for g in G.generators:
        chain._install(g)
    chain._close(len(chain.levels) - 1)
    ref._bsgs = chain
    return ref


SMALL_CONSTRUCTED = [
    lambda: alternating(7),
    lambda: symmetric(6),
    lambda: ksubsets_action(6, 2),
    lambda: partition_action(6, 2),
    lambda: agl(2, 3),
    lambda: agl(1, 7),
    lambda: psl2(7),
    lambda: dihedral(10),
    lambda: cyclic(9),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_scan_builds_the_full_scan_chain(data):
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=1, max_value=10))
        k = data.draw(st.integers(min_value=1, max_value=4))
        gens = [Permutation(list(data.draw(st.permutations(range(n))))) for _ in range(k)]
        G = PermGroup(n, gens)
    else:
        built = data.draw(st.sampled_from(SMALL_CONSTRUCTED))()
        G = PermGroup(built.degree, built.generators)
        assert order(built) == full_order(built)
    assert chain_digest(G) == chain_digest(_full_scan_copy(G))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_chain_with_grown_orbits_is_sound(data):
    # the random path: a small constructed group, or drawn generators given
    # their exact order or twice it as the bound (the second is never
    # reached, so `_close` completes the chain after the draws)
    if data.draw(st.booleans()):
        G = data.draw(st.sampled_from(SMALL_CONSTRUCTED))()
    else:
        n = data.draw(st.integers(min_value=2, max_value=8))
        k = data.draw(st.integers(min_value=1, max_value=3))
        gens = [Permutation(list(data.draw(st.permutations(range(n))))) for _ in range(k)]
        G = PermGroup(n, gens)
        G._order_bound = len(closure_elements(n, G.generators)) * data.draw(st.sampled_from([1, 2]))
    ref = PermGroup(G.degree, G.generators)  # the deterministic chain
    chain = G.bsgs
    for lv in chain.levels:
        b = lv.point
        for x, u in lv.trans.items():
            assert u[b] == x
        for x, u in lv.trans_inv.items():
            assert u[x] == b
        for x, (gi, pred) in lv.schreier.items():
            assert x == b or lv.gens[gi](pred) == x
        assert set(lv.orbit_list) == set(lv.schreier)
        want = next(o for o in brute_orbits(lv.gens, G.degree) if b in o)
        assert sorted(lv.orbit_list) == list(want)
        assert all(lv.rep(x)(b) == x and lv.rep(x, inv=True)(x) == b for x in lv.orbit_list)
    assert chain.order == order(ref) == len(closure_elements(G.degree, G.generators))
    swap = Permutation([1, 0, *range(2, G.degree)])
    letters = G.generators or (Permutation.identity(G.degree),)
    for _ in range(5):
        w = Permutation.identity(G.degree)
        for g in data.draw(st.lists(st.sampled_from(letters), max_size=6)):
            w = compose(w, g)
        assert chain.sift(w) is None and ref.bsgs.sift(w) is None
        t = compose(w, swap)
        assert (chain.sift(t) is None) == (ref.bsgs.sift(t) is None)


def test_coset_action_builds_one_chain_for_the_subgroup(monkeypatch):
    G = a5()
    H = make_group(5, "(1,2,3)", "(1,2)(4,5)")
    chains = _spy(monkeypatch, "schreier_sims")
    K, _ = coset_action(G, H)
    assert order(K) == 60 and K.degree == 10
    assert sum(1 for args in chains if args[0] is H) == 1
    # the representatives come from H's own cached chain, which order(H)
    # then reuses; no chain on every point H moves is built beside it
    assert order(H) == 6
    assert [args[0] for args in chains] == [G, H, K]


def test_sylow_subgroup_keeps_the_chain_it_grew(monkeypatch):
    G = a5()
    order(G)
    chains = _spy(monkeypatch, "schreier_sims")
    P = sylow_subgroup_small(G, 2)
    assert order(P) == 4 and chains == []
    assert order(PermGroup(5, P.generators)) == 4


def _scatter(small, spots, n: int) -> Permutation:
    """The permutation of 0..n-1 that moves spots[i] to spots[small[i]] and
    fixes every point not in spots."""
    img = list(range(n))
    for i, x in enumerate(small):
        img[spots[i]] = spots[x]
    return Permutation(img)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([8, 300]))
def test_canonical_coset_rep_is_the_least_base_image_element(data, n):
    # on H's own chain each right coset H*g gets one representative, its
    # element with the least base images, and different cosets different
    # ones; degree 8 stores images as bytes and degree 300 as numpy arrays.
    # G, generated by the letters, permutes six scattered points
    spots = data.draw(st.permutations(range(n)))[:6]
    e = Permutation.identity(n)
    smalls = data.draw(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    letters = [_scatter(s, spots, n) for s in smalls]

    def word(gens):
        w = e
        for x in data.draw(st.lists(st.sampled_from(gens or (e,)), max_size=6)):
            w = compose(w, x)
        return w

    H = PermGroup(n, [word(letters) for _ in range(data.draw(st.integers(0, 2)))])
    rep = lambda g: subdeg.groups._canonical_coset_rep(H.bsgs, g)
    g, g2, h = word(letters), word(letters), word(H.generators)
    assert rep(compose(h, g)) == rep(g)
    assert contains(H, compose(rep(g), inverse(g)))
    assert (rep(g2) == rep(g)) == contains(H, compose(g2, inverse(g)))
    base = H.bsgs.base
    least = min(tuple(compose(x, g)(b) for b in base) for x in elements(H))
    assert tuple(rep(g)(b) for b in base) == least


def test_argument_errors_and_dunders():
    # branches no other test reaches, found by tools/linecov.py
    G = a5()
    with pytest.raises(ValueError, match="degree must be at least 1"):
        PermGroup(0, [])
    with pytest.raises(TypeError, match="Permutation instances"):
        PermGroup(3, [(1, 0, 2)])
    assert G.order() == 60
    assert parse_cycles("(1,2,3)", 5) in G and parse_cycles("(1,2)", 5) not in G
    assert repr(G) == "<a5 degree=5 gens=2>" and repr(PermGroup(2, [])) == "<PermGroup degree=2 gens=0>"
    with pytest.raises(ValueError, match="point 5 out of range for degree 5"):
        orbit(G, 5)
    with pytest.raises(ValueError, match="degree mismatch"):
        is_subgroup(s4(), G)
    with pytest.raises(ValueError, match="degree mismatch between group and subgroup"):
        coset_action(G, s4())


def test_elements_skip_a_level_whose_orbit_is_its_base_point():
    # a base prefix may name a point every generator fixes
    G = make_group(5, "(1,2,3)")
    chain = schreier_sims(G, base_prefix=(4,))
    assert [len(lv.orbit()) for lv in chain.levels] == [1, 3]
    assert sorted(map(format_cycles, chain.elements())) == ["()", "(1,2,3)", "(1,3,2)"]
