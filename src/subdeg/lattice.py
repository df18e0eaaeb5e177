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


def _multiplication_table(elems: list[Permutation]) -> np.ndarray:
    """table[i, j] = index of elems[i] composed with elems[j]."""
    n = len(elems)
    images = np.stack([p.images for p in elems])
    keys = images.astype(np.int32)
    index_of = {keys[i].tobytes(): i for i in range(n)}
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        composed = keys[:, images[i]]
        row = table[i]
        for j in range(n):
            row[j] = index_of[composed[j].tobytes()]
    return table


def _join_closure(table, base_mask, base, extra: int, bail: int):
    """Close a subgroup (mask + index array) with one extra element under
    products. Returns None as soon as the count exceeds bail, meaning the
    join is the full group."""
    mask = base_mask.copy()
    mask[extra] = True
    cur = base
    count = base.size + 1
    if count > bail:
        return None
    frontier = np.array([extra], dtype=np.int32)
    while frontier.size:
        prods = np.concatenate(
            (
                table[np.ix_(frontier, cur)].ravel(),
                table[np.ix_(cur, frontier)].ravel(),
                table[np.ix_(frontier, frontier)].ravel(),
            )
        )
        fresh_all = np.unique(prods)
        fresh = fresh_all[~mask[fresh_all]]
        cur = np.concatenate((cur, frontier))
        mask[fresh] = True
        count += fresh.size
        if count > bail:
            return None
        frontier = fresh
    return cur


def all_subgroups_small(G: PermGroup, cap: int = SUBGROUP_CAP) -> SubgroupLattice:
    """Every subgroup, by closing the cyclic subgroups under single-element
    joins: repeatedly form <H, g> for known H and elements g outside H until
    nothing new appears. Cap-gated on |G| (the error carries the order).

    The fixpoint runs on element indices over a precomputed multiplication
    table. Three reductions keep it exact but affordable: join operands are
    one generator per prime-power cyclic subgroup (every cyclic group is the
    join of its prime-power parts), operands in the same H-double-coset are
    skipped (<H, hrh'> = <H, r>), and a closure aborts once its size rules
    out every proper multiple of lcm(|H|, ord(r)) dividing |G| - the join
    then can only be G itself."""
    n = order(G)
    if n > cap:
        raise CapExceeded("group order", n, cap)
    degree = G.degree
    elems = elements(G)
    ident = Permutation.identity(degree)
    table = _multiplication_table(elems)
    ident_idx = next(i for i, p in enumerate(elems) if p.is_identity())

    # one representative per cyclic subgroup, in first-seen order; only
    # prime-power-order reps serve as join operands
    found: dict[frozenset[int], tuple[int, ...]] = {}
    trivial = frozenset([ident_idx])
    found[trivial] = (ident_idx,)
    reps: list[int] = []
    rep_order: dict[int, int] = {}
    for g in range(n):
        if g == ident_idx:
            continue
        members = [ident_idx]
        x = g
        while x != ident_idx:
            members.append(x)
            x = int(table[x, g])
        cyc = frozenset(members)
        if cyc not in found:
            found[cyc] = (g,)
            if len(distinct_prime_factors(len(members))) == 1:
                reps.append(g)
                rep_order[g] = len(members)

    full = frozenset(range(n))
    if full not in found:
        keys = {p.images.tobytes(): i for i, p in enumerate(elems)}
        found[full] = tuple(keys[p.images.tobytes()] for p in G.generators)

    divisors = [d for d in range(1, n + 1) if n % d == 0]
    bail_for: dict[int, int | None] = {}

    pending = deque(s for s in found if s != trivial)
    while pending:
        current = pending.popleft()
        if len(current) == n:
            continue
        gens = found[current]
        cur = np.fromiter(current, dtype=np.int32, count=len(current))
        base_mask = np.zeros(n, dtype=bool)
        base_mask[cur] = True
        covered = base_mask.copy()
        for r in reps:
            if covered[r]:
                continue
            m = lcm(len(current), rep_order[r])
            if m not in bail_for:
                bail_for[m] = max((d for d in divisors if d % m == 0 and d < n), default=None)
            bail = bail_for[m]
            if bail is not None:
                joined = _join_closure(table, base_mask, cur, r, bail)
                if joined is not None:
                    key = frozenset(joined.tolist())
                    if key not in found:
                        if len(found) >= SUBGROUP_COUNT_GUARD:
                            raise CapExceeded("subgroup count", len(found) + 1, SUBGROUP_COUNT_GUARD)
                        found[key] = gens + (r,)
                        pending.append(key)
            # every element of H r H joins to the same subgroup
            h_r = table[cur, r]
            covered[table[np.ix_(h_r, cur)].ravel()] = True

    element_key = [p.images.tobytes() for p in elems]
    records = []
    for idx_set, gens in found.items():
        o = len(idx_set)
        key = tuple(sorted(element_key[i] for i in idx_set))
        bits = 0
        for i in idx_set:
            bits |= 1 << i
        records.append((o, key, idx_set, gens, bits))
    records.sort(key=lambda t: (t[0], t[1]))

    subgroups = []
    for o, _, idx_set, gens, bits in records:
        if o < n:
            maximal = not any(
                o < other_o < n and bits & other_bits == bits
                for other_o, _, _, _, other_bits in records
            )
        else:
            maximal = False
        subgroups.append(
            Subgroup(
                generators=tuple(elems[i] for i in gens if i != ident_idx) or (ident,),
                element_set=frozenset(elems[i] for i in idx_set),
                order=o,
                index=n // o,
                is_maximal=maximal,
            )
        )
    return SubgroupLattice(degree=degree, group_order=n, subgroups=tuple(subgroups))


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
