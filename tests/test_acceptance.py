"""Acceptance suite: the checks that gate a release.

Each test covers one numbered criterion and prints a single
"PASS criterion NN: ..." or "FAIL criterion NN: ..." line (visible with
pytest -s; the -v listing shows the same verdict per test either way).
"""
import json
import math
import time
from itertools import combinations
from types import SimpleNamespace

import pytest

from subdeg.analysis import (
    check_stabilizer_normal_bound,
    max_coprime_set,
    subdegrees,
    sylow_divisibility_check,
)
from subdeg.cli import main
from subdeg.constructions import (
    agl,
    alternating,
    cyclic,
    dihedral,
    ksubsets_action,
    psl2,
    symmetric,
)
from subdeg.corpus import BUILTIN_CORPUS, analyze, fixture_path, load_group
from subdeg.groups import coset_action, order, point_stabilizer
from subdeg.lattice import all_subgroups_small, coprime_factorizations, mu

from conftest import full_order, make_group


class criterion:
    """Prints exactly one PASS/FAIL line for the wrapped block."""

    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.num:02d}: {self.label}")
        return False


def brute_max_coprime_size(values) -> int:
    """Exhaustive subset search, independent of the library's clique code."""
    vals = sorted(set(values))
    best = 0
    for r in range(len(vals), 0, -1):
        if r <= best:
            break
        for combo in combinations(vals, r):
            if all(math.gcd(a, b) == 1 for a, b in combinations(combo, 2)):
                best = r
                break
    return best


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


# Small groups exercised by the mu / factorization criteria. Orders all
# stay below the lattice cap so brute-force enumeration is exact.
def small_test_set():
    return [
        alternating(5),
        symmetric(3),
        alternating(4),
        dihedral(4),
        symmetric(4),
        dihedral(6),
        cyclic(6),
        cyclic(8),
        cyclic(12),
        agl(1, 5),
        psl2(7),
    ]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "builtin-jobs1.json"
    t0 = time.perf_counter()
    rc = main(["verify-corpus", "--builtin", "--jobs", "1", "--json", str(out)])
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        rc=rc, elapsed=elapsed, path=out, data=json.loads(out.read_text())
    )


def test_criterion_01_j1_flagship():
    with criterion(1, "J1 on 266 points: exact invariants in under 2 s"):
        t0 = time.perf_counter()
        G = load_group(fixture_path("j1_266.json"))
        report = analyze(G)
        elapsed = time.perf_counter() - t0
        assert G.degree == 266
        assert report.order == "175560"
        assert report.primitive is True
        assert report.rank == 5
        assert report.subdegrees == (1, 11, 12, 110, 132)
        assert report.max_coprime_clique == (11, 12)
        assert report.clique_size == 2
        assert report.weiss_ok == "pass"
        assert report.neumann_ok is True  # rank 5 >= 2**2
        assert report.theorem_ok is True
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_02_theorem_sweep(sweep):
    with criterion(2, "built-in sweep: clique size <= 2 everywhere, exit 0"):
        assert sweep.rc == 0
        assert sweep.data["violations"] == []
        primitive = [e for e in sweep.data["entries"] if e["primitive"]]
        assert primitive, "sweep produced no primitive entries"
        assert all(e["theorem_ok"] is True for e in primitive)
        assert all(e["clique_size"] <= 2 for e in primitive)
        assert sweep.elapsed < 300.0, f"took {sweep.elapsed:.1f}s"


def test_criterion_03_weiss_sweep(sweep):
    with criterion(3, "largest subdegree shares a divisor with every other"):
        for e in sweep.data["entries"]:
            if not e["primitive"]:
                continue
            prime_cyclic = _is_prime(e["degree"]) and e["order"] == str(e["degree"])
            expected = "not-applicable" if prime_cyclic else "pass"
            assert e["weiss_ok"] == expected, e["name"]


def test_criterion_04_neumann_sweep(sweep):
    with criterion(4, "primitive entries have rank >= 2**clique_size"):
        for e in sweep.data["entries"]:
            if not e["primitive"]:
                continue
            assert e["neumann_ok"] is True, e["name"]
            assert e["rank"] >= 2 ** e["clique_size"], e["name"]


def test_criterion_05_ksubsets_7_3():
    with criterion(5, "ksubsets(7,3) admits no coprime pair of subdegrees"):
        report = analyze(ksubsets_action(7, 3))
        assert report.primitive is True
        assert report.clique_size <= 1
        nontrivial = report.distinct_nontrivial_subdegrees
        assert all(
            math.gcd(a, b) > 1 for a, b in combinations(nontrivial, 2)
        )


def test_criterion_06_order_oracles():
    with criterion(6, "BSGS orders match closed-form formulas"):
        for n in range(5, 10):
            assert full_order(alternating(n)) == math.factorial(n) // 2
        agl_params = [p for fam, p in BUILTIN_CORPUS if fam == "agl"]
        assert agl_params
        for d, p in agl_params:
            affine = p**d * math.prod(p**d - p**i for i in range(d))
            assert full_order(agl(d, p)) == affine, f"agl({d},{p})"
        psl_params = [p for fam, p in BUILTIN_CORPUS if fam == "psl2"]
        assert psl_params
        for (q,) in psl_params:
            assert full_order(psl2(q)) == q * (q * q - 1) // math.gcd(2, q - 1), f"psl2({q})"


def test_criterion_07_mu_oracles():
    with criterion(7, "mu values match brute force over all proper subgroups"):
        named = [
            (alternating(5), 2),
            (symmetric(3), 2),
            (alternating(4), 2),
            (dihedral(4), 1),
        ]
        for G, expected in named:
            assert mu(G) == expected, G.label
        for G in small_test_set():
            lat = all_subgroups_small(G)
            assert lat.group_order <= 2000
            proper_indices = {s.index for s in lat.proper()}
            assert mu(G, lattice=lat) == brute_max_coprime_size(proper_indices), G.label


def test_criterion_08_a5_subgroup_count():
    with criterion(8, "A5 has exactly 59 subgroups"):
        lat = all_subgroups_small(alternating(5))
        assert len(lat) == 59
        # conjugacy-class sizes: 1+15+10+5+6+10+5+6+1
        assert sum([1, 15, 10, 5, 6, 10, 5, 6, 1]) == len(lat)


def test_criterion_09_factorization_identity():
    with criterion(9, "|A||B| = |G||A^B| for every emitted pair; A5 gives (5,6)"):
        for G in small_test_set():
            lat = all_subgroups_small(G)
            n = lat.group_order
            for f in coprime_factorizations(G, lattice=lat):
                meet = len(f.a.element_set & f.b.element_set)
                assert f.a.order * f.b.order == n * meet
                assert math.gcd(f.index_a, f.index_b) == 1
        a5_pairs = coprime_factorizations(alternating(5))
        assert any((f.index_a, f.index_b) == (5, 6) for f in a5_pairs)


def test_criterion_10_stabilizer_normal_bound():
    with criterion(10, "clique size <= mu(N) on the two reference instances"):
        # N = full stabilizer A4 in the natural A5 action
        A5 = alternating(5)
        verdict = check_stabilizer_normal_bound(A5, 0, point_stabilizer(A5, 0))
        assert verdict.applicable and verdict.holds
        assert verdict.mu_value == 2
        assert verdict.clique_size == brute_max_coprime_size(
            subdegrees(A5, 0).distinct_nontrivial
        )
        # N = full stabilizer S3 in the action on its 10 cosets
        A5n = make_group(5, "(1,2,3)", "(3,4,5)")
        S3 = make_group(5, "(1,2,3)", "(1,2)(4,5)")
        K, _ = coset_action(A5n, S3)
        verdict = check_stabilizer_normal_bound(K, 0, point_stabilizer(K, 0))
        assert verdict.applicable and verdict.holds
        assert verdict.mu_value == 2
        assert verdict.clique_size == brute_max_coprime_size(
            subdegrees(K, 0).distinct_nontrivial
        )


def test_criterion_11_sylow_divisibility():
    with criterion(11, "PSL(2,7) at p=7: hypothesis holds, 7 divides everything"):
        G = psl2(7)
        assert G.degree == 8
        verdict = sylow_divisibility_check(G, 0, 7)
        assert verdict.hypothesis_holds is True
        assert verdict.conclusion_holds is True
        nontrivial = [d for d in verdict.subdegrees if d > 1]
        assert nontrivial and all(d % 7 == 0 for d in nontrivial)


def test_criterion_12_determinism(sweep, tmp_path):
    with criterion(12, "jobs=1 and jobs=8 sweeps are byte-identical"):
        out8 = tmp_path / "builtin-jobs8.json"
        rc = main(["verify-corpus", "--builtin", "--jobs", "8", "--json", str(out8)])
        assert rc == 0
        assert out8.read_bytes() == sweep.path.read_bytes()
