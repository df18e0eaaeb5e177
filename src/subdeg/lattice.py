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

from collections import deque
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .analysis import maximum_cliques
from .groups import CapExceeded, PermGroup, elements, order
from .numtheory import prime_factors as distinct_prime_factors
from .perm import Permutation

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


def _join_closure(rows, base, gens, r: int, bail: int):
    """<H, r> for H = <gens> with element indices base, as a union of left
    cosets x*H found breadth-first from H. Returns None as soon as the count
    exceeds bail, meaning the join is the full group."""
    joined = set(base)
    cosets = [base[0]]
    for c in cosets:
        for s in gens + (r,):
            x = rows[s][c]
            if x not in joined:
                joined.update(map(rows[x].__getitem__, base))
                if len(joined) > bail:
                    return None
                cosets.append(x)
    return frozenset(joined)


def all_subgroups_small(G: PermGroup, cap: int = SUBGROUP_CAP) -> SubgroupLattice:
    """Every subgroup, by closing the cyclic subgroups under single-element
    joins: repeatedly form <H, r> for known H and elements r outside H until
    nothing new appears. Cap-gated on |G| (the error carries the order).

    An element is its index in elements(G) and a subgroup the frozenset of
    its element indices; products are read off a multiplication table. A
    join <H, r> is enumerated coset by coset: left-multiplying the coset
    representatives by the generators of H and r finds every coset x*H.
    Three reductions keep the fixpoint exact but affordable: join operands
    are one generator per prime-power cyclic subgroup (every cyclic group
    is the join of its prime-power parts), operands in the same
    H-double-coset are skipped (<H, hrh'> = <H, r>), and a closure aborts
    once its size rules out every proper multiple of lcm(|H|, ord(r))
    dividing |G| - the join then can only be G itself.

    Maximality falls out of the same fixpoint: a proper H is maximal iff
    every join it tries aborts or has no proper size to reach. If H < M < G,
    some g in M lies outside H, so one of g's prime-power parts r does too,
    and <H, r> <= M is proper; the double-coset skip leaves that join
    unchanged, so H tries it and it does not abort."""
    n = order(G)
    if n > cap:
        raise CapExceeded("group order", n, cap)
    degree = G.degree
    elems = elements(G)
    ident = Permutation.identity(degree)
    images = np.stack([p.images for p in elems])
    index_of = {images[i].tobytes(): i for i in range(n)}
    # table[i, j] = index of elems[i] composed with elems[j]
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        table[i] = [index_of[c.tobytes()] for c in images[:, images[i]]]
    rows = [memoryview(row) for row in table]
    ident_idx = index_of[ident.images.tobytes()]

    # one representative per cyclic subgroup, in first-seen order; only
    # prime-power-order reps serve as join operands
    found: dict[frozenset[int], tuple[int, ...]] = {frozenset([ident_idx]): (ident_idx,)}
    reps: list[int] = []
    rep_order: dict[int, int] = {}
    for g in range(n):
        if g == ident_idx:
            continue
        members = [ident_idx]
        x = g
        while x != ident_idx:
            members.append(x)
            x = rows[x][g]
        cyc = frozenset(members)
        if cyc not in found:
            found[cyc] = (g,)
            if len(distinct_prime_factors(len(members))) == 1:
                reps.append(g)
                rep_order[g] = len(members)

    full = frozenset(range(n))
    if full not in found:
        found[full] = tuple(index_of[p.images.tobytes()] for p in G.generators)

    divisors = [d for d in range(1, n + 1) if n % d == 0]
    bail_for: dict[int, int | None] = {}
    maximal: set[frozenset[int]] = set()

    pending = deque(found)
    while pending:
        current = pending.popleft()
        if len(current) == n:
            continue
        gens = found[current]
        base = list(current)
        cur = np.array(base, dtype=np.int32)
        covered = np.zeros(n, dtype=bool)
        covered[cur] = True
        is_maximal = True
        for r in reps:
            if covered[r]:
                continue
            m = lcm(len(current), rep_order[r])
            if m not in bail_for:
                bail_for[m] = max((d for d in divisors if d % m == 0 and d < n), default=None)
            bail = bail_for[m]
            if bail is not None:
                joined = _join_closure(rows, base, gens, r, bail)
                if joined is not None:
                    is_maximal = False
                    if joined not in found:
                        if len(found) >= SUBGROUP_COUNT_GUARD:
                            raise CapExceeded("subgroup count", len(found) + 1, SUBGROUP_COUNT_GUARD)
                        found[joined] = gens + (r,)
                        pending.append(joined)
            # every element of H r H joins to the same subgroup
            covered[table[table[cur, r]][:, cur]] = True
        if is_maximal:
            maximal.add(current)

    # subgroups sort by order, then by their elements' image bytes
    key_of = list(index_of)
    ordered = sorted(found, key=lambda s: (len(s), sorted(key_of[i] for i in s)))
    subgroups = tuple(
        Subgroup(
            generators=tuple(elems[i] for i in found[s] if i != ident_idx) or (ident,),
            element_set=frozenset(elems[i] for i in s),
            order=len(s),
            index=n // len(s),
            is_maximal=s in maximal,
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
    """All unordered pairs of proper subgroups with coprime indices. Coprime
    indices force G = AB; the product identity is verified on every pair."""
    if lattice is None:
        lattice = all_subgroups_small(G, cap)
    n = lattice.group_order
    proper = lattice.proper()
    out = []
    for i, A in enumerate(proper):
        for B in proper[i + 1 :]:
            if gcd(A.index, B.index) != 1:
                continue
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
