"""Suborbit structure of transitive groups: subdegrees, coprime cliques,
and the classical divisibility checks on them.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .groups import (
    PermGroup,
    contains,
    fixed_points,
    is_transitive,
    orbits,
    point_stabilizer,
    sylow_subgroup_small,
)
from .numtheory import is_prime, maximum_cliques
from .perm import compose, inverse

__all__ = [
    "SuborbitProfile",
    "CoprimeClique",
    "CommonDivisorGraph",
    "SylowDivisibilityVerdict",
    "StabilizerBoundVerdict",
    "subdegrees",
    "max_coprime_set",
    "maximum_cliques",
    "count_maximum_cliques",
    "weiss_check",
    "neumann_check",
    "common_divisor_graph",
    "sylow_divisibility_check",
    "check_stabilizer_normal_bound",
]


class SuborbitProfile(NamedTuple):
    """Orbits of a point stabilizer: (representative, length) pairs sorted
    by length then representative. The base point's own suborbit has
    length 1."""

    degree: int
    base_point: int
    suborbits: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.suborbits)

    @property
    def subdegrees(self) -> tuple[int, ...]:
        return tuple(length for _, length in self.suborbits)

    @property
    def distinct_nontrivial(self) -> tuple[int, ...]:
        return tuple(sorted({d for d in self.subdegrees if d > 1}))


class CoprimeClique(NamedTuple):
    """A set of pairwise coprime non-trivial subdegrees, values ascending."""

    values: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.values)


def subdegrees(G: PermGroup, point: int = 0) -> SuborbitProfile:
    """Suborbit profile at a point: the orbit lengths of its stabilizer,
    each with its smallest point as representative. Errors on intransitive
    groups. Transitivity is read off G's chain when G holds one; a group
    without one is not given it before its orbit walk answers (see
    `is_transitive`)."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    if not is_transitive(G):
        raise ValueError("subdegrees need a transitive group")
    suborbits = orbits(point_stabilizer(G, point))
    pairs = sorted(((orb[0], len(orb)) for orb in suborbits), key=lambda t: (t[1], t[0]))
    assert sum(length for _, length in pairs) == G.degree
    return SuborbitProfile(degree=G.degree, base_point=point, suborbits=tuple(pairs))


def max_coprime_set(profile: SuborbitProfile) -> CoprimeClique:
    """Largest set of pairwise coprime non-trivial subdegrees; ties broken
    by the lexicographically smallest sorted value tuple."""
    cliques = maximum_cliques(profile.distinct_nontrivial)
    return CoprimeClique(values=cliques[0] if cliques else ())


def count_maximum_cliques(profile: SuborbitProfile) -> int:
    """Number of distinct maximum coprime sets (reported, never asserted)."""
    return len(maximum_cliques(profile.distinct_nontrivial))


def weiss_check(profile: SuborbitProfile) -> bool:
    """True iff the largest subdegree shares a factor with every non-trivial
    subdegree. Vacuously true when all subdegrees are 1."""
    nontrivial = [d for d in profile.subdegrees if d > 1]
    if not nontrivial:
        return True
    largest = max(nontrivial)
    return all(gcd(largest, d) > 1 for d in nontrivial)


def neumann_check(profile: SuborbitProfile, clique: CoprimeClique) -> bool:
    """Rank must reach 2^k when k pairwise coprime non-trivial subdegrees
    exist."""
    return profile.rank >= 2**clique.size


class CommonDivisorGraph(NamedTuple):
    """Graph on the distinct non-trivial subdegrees, edges joining values
    with gcd > 1. A maximum coprime set is a maximum independent set here."""

    vertices: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in self.vertices:
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return tuple(sorted(out))


def common_divisor_graph(profile: SuborbitProfile) -> CommonDivisorGraph:
    verts = profile.distinct_nontrivial
    return CommonDivisorGraph(
        vertices=verts,
        adjacency={v: tuple(u for u in verts if u != v and gcd(u, v) > 1) for v in verts},
    )


class SylowDivisibilityVerdict(NamedTuple):
    """Outcome of the Sylow normalizer divisibility check.

    hypothesis_holds: some Sylow p-subgroup has its normalizer inside the
    point stabilizer. conclusion_holds: every non-trivial subdegree is
    divisible by p (None when the hypothesis fails, i.e. not applicable).
    """

    prime: int
    hypothesis_holds: bool
    conclusion_holds: bool | None
    subdegrees: tuple[int, ...]

    @property
    def applicable(self) -> bool:
        return self.hypothesis_holds


def sylow_divisibility_check(G: PermGroup, point: int, p: int) -> SylowDivisibilityVerdict:
    """When the stabilizer of the point contains the normalizer of a Sylow
    p-subgroup, every non-trivial subdegree must be divisible by p.

    All Sylow p-subgroups being conjugate, the hypothesis asks whether some
    conjugate N^g of one Sylow normalizer N = N_G(P) lies in the stabilizer
    of the point. N <= G_b iff N^h <= G_(b^h), and G is transitive, so that
    holds iff N fixes some point. By Witt's lemma (Wielandt, Finite
    Permutation Groups, 1964, section 3) this is the same as P fixing
    exactly one point, so no normalizer is built. N permutes Fix(P), and
    any point N fixes lies in Fix(P) since P <= N. For a and b in Fix(P),
    P is a Sylow subgroup of G_a. Pick g with a^g = b. Then P and P^g are
    both Sylow in G_b, so P^(gh) = P for some h in G_b. That makes gh an
    element of N carrying a to b, so N is transitive on Fix(P) and fixes a
    point exactly when |Fix(P)| = 1. P is trivial exactly when it has no
    generators, since identity generators are stripped.

    When the prime p divides the degree n = |G : G_a|, no Sylow p-subgroup
    lies in a point stabilizer, so |Fix(P)| = 0 and P is not built."""
    profile = subdegrees(G, point)
    if G.degree % p == 0 and is_prime(p):
        hypothesis = False
    else:
        P = sylow_subgroup_small(G, p)  # raises when p is not prime
        hypothesis = bool(P.generators) and len(fixed_points(P)) == 1
    conclusion = all(d % p == 0 for d in profile.subdegrees if d > 1) if hypothesis else None
    return SylowDivisibilityVerdict(
        prime=p,
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        subdegrees=profile.subdegrees,
    )


class StabilizerBoundVerdict(NamedTuple):
    """Clique size against the coprime-index invariant of a normal subgroup
    of the stabilizer fixing only the base point.

    applicable is False when N has fixed points besides the base point;
    then no bound is claimed."""

    applicable: bool
    clique_size: int | None
    mu_value: int | None

    @property
    def holds(self) -> bool | None:
        if not self.applicable:
            return None
        return self.clique_size <= self.mu_value


def check_stabilizer_normal_bound(G: PermGroup, point: int, N: PermGroup) -> StabilizerBoundVerdict:
    """For N normal in the stabilizer of the point and fixing only that
    point, the number of pairwise coprime non-trivial subdegrees is at most
    mu(N), the largest family of proper subgroups of N with pairwise
    coprime indices."""
    from . import lattice

    for x in N.generators:
        if not (contains(G, x) and x(point) == point):
            raise ValueError("N is not a subgroup of the point stabilizer")
    for s in point_stabilizer(G, point).generators:
        s_inv = inverse(s)
        for x in N.generators:
            if not contains(N, compose(compose(s_inv, x), s)):
                raise ValueError("N is not normal in the point stabilizer")
    if fixed_points(N) != (point,):
        return StabilizerBoundVerdict(applicable=False, clique_size=None, mu_value=None)
    clique = max_coprime_set(subdegrees(G, point))
    return StabilizerBoundVerdict(
        applicable=True, clique_size=clique.size, mu_value=lattice.mu(N)
    )
