"""Subgroup lattices of small groups, the coprime-index invariant mu, and
coprime factorizations.

mu(G) is the largest size of a family of proper subgroups whose indices
are pairwise coprime. Maximal subgroups suffice: replacing a member by a
maximal overgroup keeps indices coprime (each index divides the original),
so the search runs over maximal subgroups only. The test suite verifies
this against the all-proper-subgroups brute force for every lattice it
builds. The lattice runs on a multiplication table of tuple rows, without
numpy; its joins stop at half the group order and try each cyclic
subgroup once per orbit of double cosets under the normalizer (see
all_subgroups_small).
"""
from __future__ import annotations

import gc
from itertools import combinations
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .groups import CapExceeded, PermGroup, elements, order
from .numtheory import maximum_cliques, prime_factors as distinct_prime_factors
from .perm import Permutation, _inv, _kernel, _raw

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


class Subgroup(NamedTuple):
    """One node of the lattice: a subgroup with its full element set.
    Two nodes are equal only if they are the same object."""

    generators: tuple[Permutation, ...]
    element_set: frozenset[Permutation]
    order: int
    index: int
    is_maximal: bool

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class SubgroupLattice:
    """Every subgroup of a group, in lattice order. Read-only, and equal
    only to itself."""

    __slots__ = ("degree", "group_order", "subgroups")

    def __init__(self, degree: int, group_order: int, subgroups: tuple[Subgroup, ...]):
        for name, value in zip(self.__slots__, (degree, group_order, subgroups)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return SubgroupLattice, (self.degree, self.group_order, self.subgroups)

    def __repr__(self) -> str:
        return (
            f"SubgroupLattice(degree={self.degree!r}, group_order={self.group_order!r}, "
            f"subgroups={self.subgroups!r})"
        )

    def proper(self) -> tuple[Subgroup, ...]:
        return tuple(s for s in self.subgroups if s.order < self.group_order)

    def maximal(self) -> tuple[Subgroup, ...]:
        return tuple(s for s in self.subgroups if s.is_maximal)

    def __len__(self) -> int:
        return len(self.subgroups)


def _join_closure(rows, base, gens, r: int) -> frozenset[int] | None:
    """<H, r> for H = <gens> with element indices base, as a union of left
    cosets x*H found breadth-first from H; None once it passes half of G,
    where by Lagrange it can only be G."""
    half = len(rows) // 2
    joined = set(base)
    cosets = [base[0]]
    for c in cosets:
        for s in gens + (r,):
            x = rows[s][c]
            if x not in joined:
                joined.update(map(rows[x].__getitem__, base))
                if len(joined) > half:
                    return None
                cosets.append(x)
    return frozenset(joined)


def _enter_class(found, conjugations, H: frozenset[int], gens: tuple[int, ...]) -> int:
    """Insert H and every conjugate of H into found, which maps a subgroup
    to (its generators, its class representative H), and return the class
    size. A conjugate keeps the conjugated generators. Every insertion
    checks SUBGROUP_COUNT_GUARD."""
    pending = [(H, gens)]
    size = 0
    for K, k_gens in pending:
        if K in found:
            continue
        if len(found) >= SUBGROUP_COUNT_GUARD:
            raise CapExceeded("subgroup count", len(found) + 1, SUBGROUP_COUNT_GUARD)
        found[K] = (k_gens, H)
        size += 1
        for c in conjugations:
            pending.append((frozenset(map(c.__getitem__, K)), tuple(map(c.__getitem__, k_gens))))
    return size


def _conjugation(rows, inv, t: int) -> tuple[int, ...]:
    """Conjugation x -> t^-1 x t, as a map of element indices."""
    row_inv = rows[inv[t]]
    return tuple([row_inv[row[t]] for row in rows])


def _normalizer(rows, inv, H: frozenset[int], gens: tuple[int, ...], size: int) -> list[int]:
    """Elements t_1, t_2, ... that with H = <gens> generate N_G(H), whose
    order size is below |G|; none when size = |H|. t_i is the first element, in index order,
    outside N_i = <H, t_1, ..., t_(i-1)> that conjugates each generator of H
    into H, and so normalizes H. N_i normalizes H too, so every element of
    N_G(H) outside N_i is a candidate, and the search ends once N_i has
    order size. No N_i passes |G|/2, so no join stops early."""
    N, n_gens, found = H, gens, []
    for t in range(len(rows)):
        if len(N) == size:
            break
        if t not in N and all(rows[inv[t]][rows[h][t]] in H for h in gens):
            N = _join_closure(rows, list(N), n_gens, t)
            n_gens += (t,)
            found.append(t)
    return found


def all_subgroups_small(G: PermGroup, cap: int = SUBGROUP_CAP) -> SubgroupLattice:
    """Every subgroup, by closing the trivial subgroup under single-element
    joins on conjugacy-class representatives: <H, r> is formed for each
    representative H and each element r outside H until nothing new
    appears. Cap-gated on |G| (the error carries the order).

    An element is its index in elements(G) and a subgroup the frozenset of
    its element indices. The multiplication table is a tuple per element:
    the rows of the identity and the generators of G multiply stored images,
    looked up by their bytes, so building it hashes no Permutation; the rest
    are filled breadth-first by row(x*s) = row(x)[row(s)]. A join <H, r> is
    enumerated coset by coset (left-multiplying coset representatives by
    the generators of H and r) and is proper iff it has fewer than |G|
    elements; by Lagrange it is G as soon as it passes |G|/2, and the
    enumeration stops there. Since <H^g, r^g> = <H, r>^g, a new subgroup
    enters with its whole class (its orbit under conjugation by the
    generators of G that move some element), and only the representative
    makes joins. Each insertion counts against SUBGROUP_COUNT_GUARD, so many
    singleton classes (C2^k) cannot run on.

    An operand is tried once per cyclic subgroup and orbit of H-double
    cosets under N = N_G(H), the first step of Neubüser's cyclic extension
    method (Numer. Math. 2, 1960). After r, every element of H r^k H with k
    coprime to the order of r is covered, since <H, h r^k h'> = <H, r>; so
    is each double coset that conjugation by N maps a newly covered one to,
    since <H, y^t> = <H, y>^t for t in N. |N| = |G|/s for the class size s:
    N is G when s = 1, and _normalizer grows it from H otherwise. A covered
    element's join is in the class of one made before it, so each class is
    found by the same first r, with the same generators, as when every
    element is tried.

    Maximality is decided on the representative and holds for its class: a
    proper H is maximal iff every join it tries is G. If H < M < G, any g in
    M outside H gives a proper <H, g> <= M. Either H tries g, or g is
    covered by a tried r with <H, g> conjugate to <H, r> by an element of N,
    so that join is proper too.

    The cyclic garbage collector is paused for the call (if it was on) and
    turned back on before it returns or raises, so the caller finds it as
    it left it. The build makes no reference cycle: its frozensets and
    tuple rows are freed by reference counting, and gc.collect() after a
    PSL(2,11) lattice, mu and factorizations finds 12 objects. Without the
    pause, collections that walk those young containers took about a tenth
    of the call."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return _build_lattice(G, cap)
    finally:
        if paused:
            gc.enable()


def _build_lattice(G: PermGroup, cap: int) -> SubgroupLattice:
    """all_subgroups_small without the collector pause."""
    n = order(G)
    if n > cap:
        raise CapExceeded("group order", n, cap)
    degree = G.degree
    elems = elements(G)
    ident = Permutation.identity(degree)
    index_of = {_raw(p._img): i for i, p in enumerate(elems)}
    ident_idx = index_of[_raw(ident._img)]
    gen_idx = [index_of[_raw(p._img)] for p in G.generators]
    inv = [index_of[_raw(_inv(p._img))] for p in elems]
    # rows[i][j] = index of elems[i] composed with elems[j]; n == 1 never
    # calls an itemgetter, which would return a bare int for one index
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[ident_idx] = tuple(range(n))
    then, table, raw, _ = _kernel(degree)
    for g, p in zip(gen_idx, G.generators):
        rows[g] = tuple([index_of[raw(then(p._img, table(e._img)))] for e in elems])
    times = [(g, itemgetter(*rows[g])) for g in gen_idx]
    reached = [ident_idx, *gen_idx]
    for x in reached:
        row = rows[x]
        for g, times_g in times:
            y = row[g]
            if rows[y] is None:
                rows[y] = times_g(row)
                reached.append(y)
    # conjugation by each generator of G but the central ones, which fix
    # every element
    conjugations = [_conjugation(rows, inv, g) for g in gen_idx]
    conjugations = [c for c in conjugations if c != rows[ident_idx]]

    found: dict[frozenset[int], tuple[tuple[int, ...], frozenset[int]]] = {}
    trivial = frozenset([ident_idx])
    _enter_class(found, conjugations, trivial, ())
    _enter_class(found, conjugations, frozenset(range(n)), tuple(gen_idx))
    maximal: set[frozenset[int]] = set()
    pending = [(trivial, n)] if n > 1 else []  # representatives and |N_G(H)|
    for current, size in pending:
        gens = found[current][0]
        base = list(current)
        covered = set(current)
        if size == n:
            by_normalizer = conjugations
        else:  # none when N_G(H) = H, which fixes each of its double cosets
            ts = _normalizer(rows, inv, current, gens, size)
            by_normalizer = [_conjugation(rows, inv, t) for t in ts]
        maximal.add(current)  # until a join shows a proper overgroup
        for r in range(n):
            if r in covered:
                continue
            joined = _join_closure(rows, base, gens, r)
            if joined is not None:
                maximal.discard(current)
                if joined not in found:
                    pending.append((joined, n // _enter_class(found, conjugations, joined, gens + (r,))))
            # cover H y H for each generator y = r^k of <r>, then the orbit
            # of each newly covered double coset under N; covered is a union
            # of such orbits, so a covered y or h*y needs no update
            powers = [r]
            while powers[-1] != ident_idx:
                powers.append(rows[powers[-1]][r])
            stack = [y for k, y in enumerate(powers, 1) if gcd(k, len(powers)) == 1]
            while stack:
                y = stack.pop()
                if y in covered:
                    continue
                for h in base:
                    x = rows[h][y]
                    if x not in covered:
                        covered.update(map(rows[x].__getitem__, base))
                for c in by_normalizer:
                    if c[y] not in covered:
                        stack.append(c[y])

    # subgroups sort by order, then by their elements' stored image bytes,
    # compared through each element's rank under that key. Up to degree 255
    # an image is one byte per point, which orders as the int64 little-endian
    # bytes [x, 0, ..., 0] of each point would; above it, the bytes are those.
    keys = [_raw(p._img) for p in elems]
    rank = [0] * n
    for k, i in enumerate(sorted(range(n), key=keys.__getitem__)):
        rank[i] = k
    ordered = sorted(found, key=lambda s: (len(s), sorted(map(rank.__getitem__, s))))
    # a union of one-element sets copies their stored hashes
    singletons = [frozenset([p]) for p in elems]
    subgroups = tuple(
        Subgroup(
            generators=tuple(elems[i] for i in found[s][0] if i != ident_idx) or (ident,),
            element_set=frozenset().union(*map(singletons.__getitem__, s)),
            order=len(s),
            index=n // len(s),
            is_maximal=found[s][1] in maximal,
        )
        for s in ordered
    )
    return SubgroupLattice(degree=degree, group_order=n, subgroups=subgroups)


def _lattice_of(G: PermGroup, lattice: SubgroupLattice | None) -> SubgroupLattice:
    """The lattice of G: the one given, or a new one. A given lattice must
    have G's degree and order, and its top subgroup must hold G's
    generators; with equal orders, that top subgroup is G."""
    if lattice is None:
        return all_subgroups_small(G)
    if (
        lattice.degree != G.degree
        or lattice.group_order != order(G)
        or not all(g in lattice.subgroups[-1].element_set for g in G.generators)
    ):
        raise ValueError("the lattice is not the subgroup lattice of this group")
    return lattice


def mu(G: PermGroup, lattice: SubgroupLattice | None = None) -> int:
    """Largest number of proper subgroups with pairwise coprime indices,
    computed over maximal subgroups (equal indices can never be coprime,
    so the clique runs over distinct index values). A lattice given must be
    G's; ValueError otherwise."""
    lattice = _lattice_of(G, lattice)
    indices = sorted({s.index for s in lattice.maximal()})
    cliques = maximum_cliques(tuple(indices))
    return len(cliques[0])


def mu_prime_bound(group_order: int) -> int:
    """mu never exceeds the number of distinct primes dividing the order."""
    return len(distinct_prime_factors(group_order))


class Factorization(NamedTuple):
    """G = A*B witnessed by coprime indices; |A||B| = |G||A cap B| checked.
    Two factorizations are equal only if they are the same object."""

    a: Subgroup
    b: Subgroup
    index_a: int
    index_b: int
    both_maximal: bool

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def coprime_factorizations(
    G: PermGroup, lattice: SubgroupLattice | None = None
) -> tuple[Factorization, ...]:
    """All unordered pairs of proper subgroups with coprime indices, in
    lattice order of the pair's positions. Subgroups are bucketed by index
    and only buckets with coprime index values are paired. Coprime indices
    force G = AB; the product identity is verified on every pair. A lattice
    given must be G's; ValueError otherwise."""
    lattice = _lattice_of(G, lattice)
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


class MuBoundVerdict(NamedTuple):
    mu_value: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.mu_value <= self.bound


def check_mu_bound(K: PermGroup) -> MuBoundVerdict:
    """Compute mu(K) and compare it to 2, the bound satisfied by
    quasisimple groups."""
    return MuBoundVerdict(mu_value=mu(K), bound=2)
