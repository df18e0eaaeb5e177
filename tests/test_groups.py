"""Group engine: chains, orbits, stabilizers, cosets, blocks, searches.

Expected numbers are frozen from the brute-force oracles in conftest.py
(Cayley closure, element filtering, partition refinement), which the
production code must reproduce.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_blocks,
    brute_orbits,
    brute_stabilizer,
    closure_elements,
    make_group,
)
import subdeg.analysis
import subdeg.corpus
import subdeg.groups
from subdeg.analysis import subdegrees
from subdeg.constructions import alternating, cyclic
from subdeg.corpus import analyze, fixture_path, load_group
from subdeg.perm import Permutation, compose, inverse, parse_cycles
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
    normalizer_small,
    orbit,
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


def test_orbit_and_schreier_vector():
    G = make_group(6, "(1,2,3)", "(4,5)")
    orb, vec = orbit(G, 0)
    assert sorted(orb) == [0, 1, 2]
    assert set(vec) == {0, 1, 2}
    # walking the vector reconstructs a word mapping the seed to each point
    for pt in orb:
        x = pt
        word = []
        while vec[x][0] != -1:
            gi, prev = vec[x]
            word.append(gi)
            x = prev
        g = Permutation.identity(6)
        for gi in reversed(word):
            g = compose(g, G.generators[gi])
        assert g(0) == pt

    orb2, _ = orbit(G, 3)
    assert sorted(orb2) == [3, 4]
    assert orbit(G, 5)[0] == (5,)


def test_bsgs_invariants():
    for G in [a5(), s4(), d4(), c6()]:
        b = G.bsgs
        levels = b._chain.levels
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
    assert [lv.orbit_list for lv in b1._chain.levels] == [lv.orbit_list for lv in b2._chain.levels]
    assert [lv.schreier for lv in b1._chain.levels] == [lv.schreier for lv in b2._chain.levels]


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


def test_elements_matches_closure_and_cap():
    G = a5()
    got = elements(G)
    assert len(got) == 60
    assert len(set(got)) == 60
    assert set(got) == set(closure_elements(5, G.generators))
    with pytest.raises(CapExceeded) as exc:
        elements(G, cap=30)
    assert exc.value.value == 60
    assert exc.value.cap == 30


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


def test_coset_action_cap_and_subgroup_errors():
    G = a5()
    H = make_group(5, "(1,2,3)", "(1,2)(4,5)")
    with pytest.raises(CapExceeded) as exc:
        coset_action(G, H, cap=5)
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


def test_normalizer_small():
    G = s4()
    c4 = make_group(4, "(1,2,3,4)")
    N = normalizer_small(G, c4)
    assert order(N) == 8
    v4 = make_group(4, "(1,2)(3,4)", "(1,3)(2,4)")
    assert order(normalizer_small(G, v4)) == 24  # normal subgroup
    A = a5()
    c5 = make_group(5, "(1,2,3,4,5)")
    assert order(normalizer_small(A, c5)) == 10
    # oracle: direct element filter
    gelems = closure_elements(4, G.generators)
    c4_set = set(closure_elements(4, c4.generators))
    oracle = [
        g
        for g in gelems
        if all(compose(compose(inverse(g), x), g) in c4_set for x in c4_set)
    ]
    assert len(oracle) == 8
    assert set(elements(N)) == set(oracle)


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
    G = _fresh_j1()
    probes = _spy(monkeypatch, "_minimal_block_system")
    assert is_primitive(G)
    stab = point_stabilizer(G, 0)
    probed = sorted(len(orbit(stab, pair[1])[0]) for _, pair in probes)
    assert probed == [11, 12, 110, 132]  # one probe per non-trivial suborbit


def test_is_primitive_regular_group_needs_no_probe(monkeypatch):
    probes = _spy(monkeypatch, "_minimal_block_system")
    assert is_primitive(cyclic(997))
    assert not is_primitive(cyclic(998))
    assert probes == []


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


def test_analyze_makes_one_suborbit_pass(monkeypatch):
    G = _fresh_j1()
    names = ("is_transitive", "point_stabilizer", "orbits", "_minimal_block_system")
    calls = {name: _spy(monkeypatch, name) for name in names}
    assert analyze(G).primitive
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {
        "is_transitive": 1,
        "point_stabilizer": 1,
        "orbits": 1,
        "_minimal_block_system": 4,  # one probe per non-trivial suborbit
    }
