"""Suborbit structure of transitive groups: subdegrees, coprime cliques,
and the classical divisibility checks on them.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groups import (
    ELEMENTS_CAP,
    PermGroup,
    contains,
    elements,
    fixed_points,
    is_transitive,
    normalizer_small,
    orbits,
    order,
    point_stabilizer,
    sylow_subgroup_small,
)
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


@dataclass(frozen=True)
class SuborbitProfile:
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


@dataclass(frozen=True)
class CoprimeClique:
    """A set of pairwise coprime non-trivial subdegrees, values ascending."""

    values: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.values)


def subdegrees(G: PermGroup, point: int = 0) -> SuborbitProfile:
    """Suborbit profile at a point: the orbit lengths of its stabilizer.
    Errors on intransitive groups."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    if not is_transitive(G):
        raise ValueError("subdegrees need a transitive group")
    return _suborbit_profile(G.degree, point, orbits(point_stabilizer(G, point)))


def _suborbit_profile(degree: int, point: int, suborbits) -> SuborbitProfile:
    """subdegrees from the orbits of the stabilizer of point."""
    pairs = sorted(((orb[0], len(orb)) for orb in suborbits), key=lambda t: (t[1], t[0]))
    assert sum(length for _, length in pairs) == degree
    return SuborbitProfile(degree=degree, base_point=point, suborbits=tuple(pairs))


def _coprime_graph(values: tuple[int, ...]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in values}
    for i, u in enumerate(values):
        for v in values[i + 1 :]:
            if gcd(u, v) == 1:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def maximum_cliques(values) -> list[tuple[int, ...]]:
    """All maximum cliques of the coprimality graph, each sorted ascending."""
    verts = tuple(sorted(set(values)))
    adj = _coprime_graph(verts)
    best: list[tuple[int, ...]] = [()]

    def extend(clique: list[int], candidates: list[int]) -> None:
        nonlocal best
        if not candidates:
            size = len(clique)
            if size > len(best[0]):
                best = [tuple(clique)]
            elif size == len(best[0]) and tuple(clique) not in best:
                best.append(tuple(clique))
            return
        if len(clique) + len(candidates) < len(best[0]):
            return  # cannot beat the current maximum
        for i, v in enumerate(candidates):
            if len(clique) + len(candidates) - i < len(best[0]):
                break
            extend(clique + [v], [u for u in candidates[i + 1 :] if u in adj[v]])

    extend([], list(verts))
    return sorted(best)


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


@dataclass(frozen=True)
class CommonDivisorGraph:
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
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if gcd(u, v) > 1:
                adj[u].append(v)
                adj[v].append(u)
    return CommonDivisorGraph(
        vertices=verts,
        adjacency={v: tuple(sorted(nbrs)) for v, nbrs in adj.items()},
    )


@dataclass(frozen=True)
class SylowDivisibilityVerdict:
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


def sylow_divisibility_check(
    G: PermGroup, point: int, p: int, cap: int = ELEMENTS_CAP
) -> SylowDivisibilityVerdict:
    """When the stabilizer of the point contains the normalizer of a Sylow
    p-subgroup, every non-trivial subdegree must be divisible by p.

    All Sylow p-subgroups being conjugate, the hypothesis is tested for
    every conjugate of one computed Sylow normalizer."""
    profile = subdegrees(G, point)
    P = sylow_subgroup_small(G, p, cap)
    hypothesis = False
    if order(P) > 1:
        N = normalizer_small(G, P, cap)
        stab = point_stabilizer(G, point)
        for g in elements(G, cap):
            g_inv = inverse(g)
            if all(
                contains(stab, compose(compose(g_inv, x), g)) for x in N.generators
            ):
                hypothesis = True
                break
    conclusion = all(d % p == 0 for d in profile.subdegrees if d > 1) if hypothesis else None
    return SylowDivisibilityVerdict(
        prime=p,
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        subdegrees=profile.subdegrees,
    )


@dataclass(frozen=True)
class StabilizerBoundVerdict:
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


def check_stabilizer_normal_bound(
    G: PermGroup, point: int, N: PermGroup, subgroup_cap: int | None = None
) -> StabilizerBoundVerdict:
    """For N normal in the stabilizer of the point and fixing only that
    point, the number of pairwise coprime non-trivial subdegrees is at most
    mu(N), the largest family of proper subgroups of N with pairwise
    coprime indices."""
    from . import lattice

    stab = point_stabilizer(G, point)
    for x in N.generators:
        if not contains(stab, x):
            raise ValueError("N is not a subgroup of the point stabilizer")
    for s in stab.generators:
        s_inv = inverse(s)
        for x in N.generators:
            if not contains(N, compose(compose(s_inv, x), s)):
                raise ValueError("N is not normal in the point stabilizer")
    if fixed_points(N) != (point,):
        return StabilizerBoundVerdict(applicable=False, clique_size=None, mu_value=None)
    clique = max_coprime_set(subdegrees(G, point))
    kwargs = {} if subgroup_cap is None else {"cap": subgroup_cap}
    mu_value = lattice.mu(N, **kwargs)
    return StabilizerBoundVerdict(
        applicable=True, clique_size=clique.size, mu_value=mu_value
    )
