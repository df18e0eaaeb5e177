"""Subgroup lattices of small groups, the coprime-index invariant mu, and
coprime factorizations.

mu(G) is the largest size of a family of proper subgroups whose indices
are pairwise coprime. Maximal subgroups suffice: replacing a member by a
maximal overgroup keeps indices coprime (each index divides the original),
so the search runs over maximal subgroups only. The test suite verifies
this against the all-proper-subgroups brute force for every lattice it
builds.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

import numpy as np

from .analysis import maximum_cliques
from .groups import CapExceeded, PermGroup, elements, order
from .numtheory import prime_factors as distinct_prime_factors
from .perm import Permutation, inverse

__all__ = [
    "SUBGROUP_CAP",
    "Subgroup",
    "SubgroupLattice",
    "Factorization",
    "MuBoundVerdict",
    "all_subgroups_small",
    "mu",
    "mu_prime_bound",
    "coprime_factorizations",
    "check_mu_bound",
    "distinct_prime_factors",
]

SUBGROUP_CAP = 2000

# small 2-groups can still have combinatorially many subgroups
SUBGROUP_COUNT_GUARD = 200_000


@dataclass(frozen=True, eq=False)
class Subgroup:
    """One node of the lattice: a subgroup with its full element set."""

    generators: tuple[Permutation, ...]
    element_set: frozenset[Permutation]
    order: int
    index: int
    is_maximal: bool


@dataclass(frozen=True, eq=False)
class SubgroupLattice:
    degree: int
    group_order: int
    subgroups: tuple[Subgroup, ...]

    def proper(self) -> tuple[Subgroup, ...]:
        return tuple(s for s in self.subgroups if s.order < self.group_order)

    def maximal(self) -> tuple[Subgroup, ...]:
        return tuple(s for s in self.subgroups if s.is_maximal)

    def __len__(self) -> int:
        return len(self.subgroups)


def _join_closure(rows, base, gens, r: int) -> frozenset[int]:
    """<H, r> for H = <gens> with element indices base, as a union of left
    cosets x*H found breadth-first from H."""
    joined = set(base)
    cosets = [base[0]]
    for c in cosets:
        for s in gens + (r,):
            x = rows[s][c]
            if x not in joined:
                joined.update(map(rows[x].__getitem__, base))
                cosets.append(x)
    return frozenset(joined)


def _enter_class(found, conjugations, H: frozenset[int], gens: tuple[int, ...]) -> None:
    """Insert H and every conjugate of H into found, which maps a subgroup
    to (its generators, its class representative H). A conjugate keeps the
    conjugated generators. Every insertion checks SUBGROUP_COUNT_GUARD."""
    pending = [(H, gens)]
    for K, k_gens in pending:
        if K in found:
            continue
        if len(found) >= SUBGROUP_COUNT_GUARD:
            raise CapExceeded("subgroup count", len(found) + 1, SUBGROUP_COUNT_GUARD)
        found[K] = (k_gens, H)
        for c in conjugations:
            pending.append((frozenset(map(c.__getitem__, K)), tuple(map(c.__getitem__, k_gens))))


def all_subgroups_small(G: PermGroup, cap: int = SUBGROUP_CAP) -> SubgroupLattice:
    """Every subgroup, by closing the trivial subgroup under single-element
    joins on conjugacy-class representatives: <H, r> is formed for each
    representative H and each element r outside H until nothing new
    appears. Cap-gated on |G| (the error carries the order).

    An element is its index in elements(G) and a subgroup the frozenset of
    its element indices. The multiplication table looks up the rows of the
    identity and the generators of G and fills the rest breadth-first by
    row(x*s) = row(x)[row(s)]. A join <H, r> is enumerated coset by coset
    (left-multiplying coset representatives by the generators of H and r)
    and is proper iff it has fewer than |G| elements. Since
    <H^g, r^g> = <H, r>^g, a new subgroup enters with its whole class (its
    orbit under conjugation by the generators of G), and only the
    representative makes joins; operands in one H-double-coset are tried
    once (<H, hrh'> = <H, r>). Each insertion counts against
    SUBGROUP_COUNT_GUARD, so many singleton classes (C2^k) cannot run on.

    Maximality is decided on the representative and holds for its class: a
    proper H is maximal iff every join it tries is G. If H < M < G, any g in
    M outside H gives a proper <H, g> <= M, which H tries or covers by a
    double coset with the same join."""
    n = order(G)
    if n > cap:
        raise CapExceeded("group order", n, cap)
    degree = G.degree
    elems = elements(G)
    ident = Permutation.identity(degree)
    images = np.stack([p.images for p in elems])
    index_of = {images[i].tobytes(): i for i in range(n)}
    ident_idx = index_of[ident.images.tobytes()]
    gen_idx = [index_of[p.images.tobytes()] for p in G.generators]
    # table[i, j] = index of elems[i] composed with elems[j]
    table = np.full((n, n), -1, dtype=np.int32)
    table[ident_idx] = np.arange(n)
    for g, p in zip(gen_idx, G.generators):
        table[g] = [index_of[c.tobytes()] for c in images[:, p.images]]
    reached = [ident_idx, *gen_idx]
    for x in reached:
        for g in gen_idx:
            y = table[x, g]
            if table[y, 0] < 0:
                table[y] = table[x][table[g]]
                reached.append(y)
    rows = [memoryview(row) for row in table]
    # conjugation h -> g^-1 h g by each generator g, as a map of indices
    conjugations = [
        table[index_of[inverse(p).images.tobytes()]][table[:, g]].tolist()
        for g, p in zip(gen_idx, G.generators)
    ]

    found: dict[frozenset[int], tuple[tuple[int, ...], frozenset[int]]] = {}
    trivial = frozenset([ident_idx])
    _enter_class(found, conjugations, trivial, (ident_idx,))
    _enter_class(found, conjugations, frozenset(range(n)), tuple(gen_idx))
    maximal: set[frozenset[int]] = set()
    pending = [trivial] if n > 1 else []
    for current in pending:
        gens = found[current][0]
        base = list(current)
        covered = set(current)
        maximal.add(current)  # until a join shows a proper overgroup
        for r in range(n):
            if r in covered:
                continue
            joined = _join_closure(rows, base, gens, r)
            if len(joined) < n:
                maximal.discard(current)
                if joined not in found:
                    _enter_class(found, conjugations, joined, gens + (r,))
                    pending.append(joined)
            # every element of H r H joins to the same subgroup; covered is
            # a union of left cosets x*H, so a covered h*r needs no update
            for h in base:
                x = rows[h][r]
                if x not in covered:
                    covered.update(map(rows[x].__getitem__, base))

    # subgroups sort by order, then by their elements' image bytes
    key_of = list(index_of)
    ordered = sorted(found, key=lambda s: (len(s), sorted(key_of[i] for i in s)))
    subgroups = tuple(
        Subgroup(
            generators=tuple(elems[i] for i in found[s][0] if i != ident_idx) or (ident,),
            element_set=frozenset(elems[i] for i in s),
            order=len(s),
            index=n // len(s),
            is_maximal=found[s][1] in maximal,
        )
        for s in ordered
    )
    return SubgroupLattice(degree=degree, group_order=n, subgroups=subgroups)


def mu(G: PermGroup, lattice: SubgroupLattice | None = None, cap: int = SUBGROUP_CAP) -> int:
    """Largest number of proper subgroups with pairwise coprime indices,
    computed over maximal subgroups (equal indices can never be coprime,
    so the clique runs over distinct index values)."""
    if lattice is None:
        lattice = all_subgroups_small(G, cap)
    indices = sorted({s.index for s in lattice.maximal()})
    cliques = maximum_cliques(tuple(indices))
    return len(cliques[0])


def mu_prime_bound(group_order: int) -> int:
    """mu never exceeds the number of distinct primes dividing the order."""
    return len(distinct_prime_factors(group_order))


@dataclass(frozen=True, eq=False)
class Factorization:
    """G = A*B witnessed by coprime indices; |A||B| = |G||A cap B| checked."""

    a: Subgroup
    b: Subgroup
    index_a: int
    index_b: int
    both_maximal: bool


def coprime_factorizations(
    G: PermGroup, lattice: SubgroupLattice | None = None, cap: int = SUBGROUP_CAP
) -> tuple[Factorization, ...]:
    """All unordered pairs of proper subgroups with coprime indices, in
    lattice order of the pair's positions. Subgroups are bucketed by index
    and only buckets with coprime index values are paired. Coprime indices
    force G = AB; the product identity is verified on every pair."""
    if lattice is None:
        lattice = all_subgroups_small(G, cap)
    n = lattice.group_order
    proper = lattice.proper()
    by_index: dict[int, list[int]] = {}
    for i, s in enumerate(proper):
        by_index.setdefault(s.index, []).append(i)
    pairs = sorted(
        (min(i, j), max(i, j))
        for u, v in combinations(by_index, 2)
        if gcd(u, v) == 1
        for i in by_index[u]
        for j in by_index[v]
    )
    out = []
    for i, j in pairs:
        A, B = proper[i], proper[j]
        meet = len(A.element_set & B.element_set)
        assert A.order * B.order == n * meet, "coprime indices must factor the group"
        first, second = (A, B) if A.index <= B.index else (B, A)
        out.append(
            Factorization(
                a=first,
                b=second,
                index_a=first.index,
                index_b=second.index,
                both_maximal=A.is_maximal and B.is_maximal,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class MuBoundVerdict:
    mu_value: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.mu_value <= self.bound


def check_mu_bound(K: PermGroup, bound: int = 2, cap: int = SUBGROUP_CAP) -> MuBoundVerdict:
    """Compute mu(K) and compare it to a claimed bound (default 2, the bound
    satisfied by quasisimple groups)."""
    return MuBoundVerdict(mu_value=mu(K, cap=cap), bound=bound)
