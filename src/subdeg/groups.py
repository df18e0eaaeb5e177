"""Permutation groups: deterministic Schreier-Sims, orbits, stabilizers,
coset actions, block systems, primitivity, and small-group searches.

The stabilizer chain is built deterministically: no randomization, base
points chosen as the smallest moved point, orbits explored breadth-first
with generators in list order. Two runs over the same generators produce
identical chains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import is_prime, prime_factors
from .perm import Permutation, compose, inverse

__all__ = [
    "PermGroup",
    "Bsgs",
    "BlockSystem",
    "CapExceeded",
    "ELEMENTS_CAP",
    "COSET_CAP",
    "orbit",
    "orbits",
    "schreier_sims",
    "order",
    "contains",
    "point_stabilizer",
    "coset_action",
    "minimal_block_system",
    "is_primitive",
    "elements",
    "normalizer_small",
    "sylow_subgroup_small",
    "fixed_points",
    "is_subgroup",
]

ELEMENTS_CAP = 200_000
COSET_CAP = 100_000


class CapExceeded(ValueError):
    """A configured size bound was exceeded; carries the value and the cap."""

    def __init__(self, what: str, value: int, cap: int):
        self.what = what
        self.value = value
        self.cap = cap
        super().__init__(f"{what} {value} exceeds cap {cap}")


class PermGroup:
    """Group generated by permutations of 0..degree-1.

    Identity generators are stripped and exact duplicates dropped; a
    generator of the wrong degree is an error.
    """

    def __init__(self, degree: int, generators, label: str | None = None):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens: list[Permutation] = []
        seen: set[Permutation] = set()
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError("generators must be Permutation instances")
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.label = label
        self._bsgs: Bsgs | None = None

    @property
    def bsgs(self) -> "Bsgs":
        if self._bsgs is None:
            self._bsgs = schreier_sims(self)
        return self._bsgs

    def order(self) -> int:
        return self.bsgs.order

    def __contains__(self, p: Permutation) -> bool:
        return contains(self, p)

    def __repr__(self) -> str:
        name = self.label or "PermGroup"
        return f"<{name} degree={self.degree} gens={len(self.generators)}>"


class _Level:
    """One level of the stabilizer chain."""

    __slots__ = ("point", "gen_idxs", "orbit_list", "trans", "trans_inv", "schreier", "dirty")

    def __init__(self, point: int):
        self.point = point
        self.gen_idxs: list[int] = []
        self.dirty = True  # orbit_list, trans, trans_inv and schreier are set by rebuild

    def rebuild(self, strong: list[Permutation], degree: int) -> None:
        self.orbit_list, self.schreier = _schreier_vector(strong, self.gen_idxs, self.point)
        self.trans = {self.point: Permutation.identity(degree)}
        for b in self.orbit_list[1:]:
            gi, a = self.schreier[b]
            self.trans[b] = compose(self.trans[a], strong[gi])
        self.trans_inv = {b: inverse(u) for b, u in self.trans.items()}
        self.dirty = False


class _Chain:
    """Mutable deterministic Schreier-Sims chain supporting incremental adds."""

    def __init__(self, degree: int, base_prefix=()):
        self.degree = degree
        self.strong: list[Permutation] = []
        self.levels: list[_Level] = []
        for pt in base_prefix:
            if not 0 <= pt < degree:
                raise ValueError(f"base point {pt} out of range")
            if all(lv.point != pt for lv in self.levels):
                self.levels.append(_Level(pt))

    @property
    def base(self) -> list[int]:
        return [lv.point for lv in self.levels]

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            if lv.dirty:
                lv.rebuild(self.strong, self.degree)
            n *= len(lv.orbit_list)
        return n

    def _install(self, g: Permutation) -> int:
        """Register a non-identity strong generator; returns its deepest level."""
        i = None
        for l, lv in enumerate(self.levels):
            if g(lv.point) != lv.point:
                i = l
                break
        if i is None:
            self.levels.append(_Level(g.min_moved()))
            i = len(self.levels) - 1
        gi = len(self.strong)
        self.strong.append(g)
        for l in range(i + 1):
            self.levels[l].gen_idxs.append(gi)
            self.levels[l].dirty = True
        return i

    def _sift(self, p: Permutation, start: int = 0) -> Permutation | None:
        """Reduce p through levels from `start`; None means p sifted to identity."""
        for l in range(start, len(self.levels)):
            lv = self.levels[l]
            if lv.dirty:
                lv.rebuild(self.strong, self.degree)
            delta = p(lv.point)
            if delta == lv.point:
                continue
            u_inv = lv.trans_inv.get(delta)
            if u_inv is None:
                return p
            p = compose(p, u_inv)
        return None if p.is_identity() else p

    def contains(self, p: Permutation) -> bool:
        return self._sift(p) is None

    def _close(self, from_level: int) -> None:
        """Re-establish the chain invariant from `from_level` upwards."""
        i = min(from_level, len(self.levels) - 1)
        while i >= 0:
            lv = self.levels[i]
            if lv.dirty:
                lv.rebuild(self.strong, self.degree)
            restart = False
            for gi in list(lv.gen_idxs):
                g = self.strong[gi]
                for a in lv.orbit_list:
                    b = g(a)
                    if lv.schreier.get(b) == (gi, a):
                        continue  # tree edge, Schreier generator is trivial
                    sg = compose(compose(lv.trans[a], g), lv.trans_inv[b])
                    if sg.is_identity():
                        continue
                    residue = self._sift(sg, i + 1)
                    if residue is not None:
                        k = self._install(residue)
                        i = k
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1

    def add_generator(self, g: Permutation) -> bool:
        """Add g if not already in the group; returns True when the group grew."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        if g.is_identity() or self.contains(g):
            return False
        k = self._install(g)
        self._close(k)
        return True

    def elements_iter(self):
        """All elements, deterministically: transversal products, deepest first."""
        for lv in self.levels:
            if lv.dirty:
                lv.rebuild(self.strong, self.degree)
        elts = [Permutation.identity(self.degree)]
        for lv in reversed(self.levels):
            if len(lv.orbit_list) == 1:
                continue
            nxt = []
            for pt in sorted(lv.orbit_list):
                u = lv.trans[pt]
                if pt == lv.point:
                    nxt.extend(elts)
                else:
                    for h in elts:
                        nxt.append(compose(h, u))
            elts = nxt
        return elts


@dataclass(frozen=True, eq=False)
class Bsgs:
    """Base and strong generating set of a complete stabilizer chain."""

    degree: int
    base: tuple[int, ...]
    strong_generators: tuple[Permutation, ...]
    order: int
    _chain: _Chain

    def sift(self, p: Permutation) -> Permutation | None:
        """Residue of p against the chain; None when p is a member."""
        return self._chain._sift(p)


def schreier_sims(G: PermGroup, base_prefix=()) -> Bsgs:
    """Deterministic Schreier-Sims: same input, same chain, every run."""
    chain = _Chain(G.degree, base_prefix)
    for g in G.generators:
        chain._install(g)
    chain._close(len(chain.levels) - 1)
    return Bsgs(
        degree=G.degree,
        base=tuple(chain.base),
        strong_generators=tuple(chain.strong),
        order=chain.order(),  # also rebuilds the levels point_stabilizer reads
        _chain=chain,
    )


def _schreier_vector(gens, idxs, point: int) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Breadth-first orbit of a point under gens[i] for i in idxs, trying
    the generators in idxs order, with the Schreier vector mapping each orbit
    point to (generator index, predecessor); the point maps to (-1, point)."""
    images = [(gi, gens[gi].images.tolist()) for gi in idxs]
    orb = [point]
    vec = {point: (-1, point)}
    for a in orb:
        for gi, img in images:
            b = img[a]
            if b not in vec:
                vec[b] = (gi, a)
                orb.append(b)
    return orb, vec


def orbit(G: PermGroup, point: int) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """Orbit of a point (breadth-first discovery order) and its Schreier
    vector mapping each orbit point to (generator index, predecessor)."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    orb, vec = _schreier_vector(G.generators, range(len(G.generators)), point)
    return tuple(orb), vec


def orbits(G: PermGroup) -> list[tuple[int, ...]]:
    """Every orbit, each in breadth-first order from its smallest point,
    listed by that point."""
    seen: set[int] = set()
    out = []
    for start in range(G.degree):
        if start not in seen:
            orb = orbit(G, start)[0]
            seen.update(orb)
            out.append(orb)
    return out


def order(G: PermGroup) -> int:
    return G.bsgs.order


def contains(G: PermGroup, p: Permutation) -> bool:
    if p.degree != G.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {G.degree}")
    return G.bsgs.sift(p) is None


def is_subgroup(H: PermGroup, G: PermGroup) -> bool:
    """True when every generator of H lies in G (same degree required)."""
    if H.degree != G.degree:
        raise ValueError("degree mismatch")
    return all(contains(G, h) for h in H.generators)


def is_transitive(G: PermGroup) -> bool:
    return len(orbit(G, 0)[0]) == G.degree


def point_stabilizer(G: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point, read off G's cached chain: the level-1 strong
    generators generate the stabilizer of the first base point b, and the
    level-0 transversal element u carrying b to the point conjugates them
    into the stabilizer of the point. A point outside b's orbit (intransitive
    or trivial G) gets a chain rebuilt with that point as first base point."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    chain = G.bsgs._chain
    if not chain.levels or point not in chain.levels[0].trans:
        chain = schreier_sims(G, base_prefix=(point,))._chain
    top = chain.levels[0]
    u, u_inv = top.trans[point], top.trans_inv[point]
    level1 = chain.levels[1].gen_idxs if len(chain.levels) > 1 else []
    gens = [compose(compose(u_inv, chain.strong[gi]), u) for gi in level1]
    label = f"Stab({point})" if G.label is None else f"{G.label}.stab({point})"
    return PermGroup(G.degree, gens, label=label)


def fixed_points(H: PermGroup) -> tuple[int, ...]:
    """Points fixed by every generator."""
    fixed = np.ones(H.degree, dtype=bool)
    ident = np.arange(H.degree)
    for g in H.generators:
        fixed &= g.images == ident
    return tuple(int(x) for x in np.flatnonzero(fixed))


def _canonical_coset_rep(chain: _Chain, g: Permutation) -> Permutation:
    """Lexicographically least element of the right coset H*g, where H is the
    group of `chain`.

    Requires the chain base to list, in increasing order, every point H
    moves; then the greedy choice per level (minimize the image of the base
    point over its fundamental orbit) yields the lex-least image array."""
    cur = g
    for lv in chain.levels:
        if lv.dirty:
            lv.rebuild(chain.strong, chain.degree)
        if len(lv.orbit_list) > 1:
            img = cur.images
            best = min(lv.orbit_list, key=lambda d: img[d])
            if best != lv.point:
                cur = compose(lv.trans[best], cur)
    return cur


def coset_action(
    G: PermGroup, H: PermGroup, cap: int = COSET_CAP
) -> tuple[PermGroup, tuple[Permutation, ...]]:
    """Action of G on the right cosets of H, with the coset transversal.

    Coset i corresponds to H*transversal[i]; coset 0 is H itself. Errors
    when H is not a subgroup of G or the index exceeds the cap.
    """
    if H.degree != G.degree:
        raise ValueError("degree mismatch between group and subgroup")
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")
    index = order(G) // order(H)
    if index > cap:
        raise CapExceeded("coset index", index, cap)
    fixed = set(fixed_points(H))
    prefix = tuple(x for x in range(G.degree) if x not in fixed)
    chain = schreier_sims(H, base_prefix=prefix)._chain
    r0 = _canonical_coset_rep(chain, Permutation.identity(G.degree))
    reps = [r0]
    lookup = {r0: 0}
    images = [[] for _ in G.generators]
    qi = 0
    while qi < len(reps):
        r = reps[qi]
        qi += 1
        for gi, s in enumerate(G.generators):
            rep = _canonical_coset_rep(chain, compose(r, s))
            j = lookup.get(rep)
            if j is None:
                j = len(reps)
                lookup[rep] = j
                reps.append(rep)
            images[gi].append(j)
    assert len(reps) == index, "coset enumeration disagrees with the index"
    induced = [
        Permutation(np.array(img, dtype=np.int64)) for img in images
    ]
    label = f"{G.label or 'G'} on {index} cosets"
    K = PermGroup(index, induced, label=label)
    return K, tuple(reps)


@dataclass(frozen=True)
class BlockSystem:
    """Partition of the points preserved by the group. Blocks are sorted by
    smallest point; block_of[x] is the index of the block containing x."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])


def minimal_block_system(G: PermGroup, pair: tuple[int, int]) -> BlockSystem:
    """Finest G-congruence whose blocks contain the given pair of points
    (union-find refinement). G must be transitive."""
    a, b = pair
    n = G.degree
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError("seed pair out of range")
    if a == b:
        raise ValueError("seed pair must be two distinct points")
    if not is_transitive(G):
        raise ValueError("minimal_block_system needs a transitive group")
    return _minimal_block_system(G, pair)


def _minimal_block_system(G: PermGroup, pair: tuple[int, int]) -> BlockSystem:
    """minimal_block_system without its checks: G transitive and the pair two
    distinct points."""
    a, b = pair
    n = G.degree
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for g in G.generators:
            queue.append((g(x), g(y)))
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    blocks = tuple(
        sorted((tuple(v) for v in classes.values()), key=lambda blk: blk[0])
    )
    sizes = {len(blk) for blk in blocks}
    assert len(sizes) == 1, "blocks of a transitive congruence must share a size"
    block_of = [0] * n
    for i, blk in enumerate(blocks):
        for x in blk:
            block_of[x] = i
    return BlockSystem(degree=n, blocks=blocks, block_of=tuple(block_of))


def is_primitive(G: PermGroup) -> bool:
    """Transitive with no proper non-trivial block system. Degree-1 and
    intransitive groups report False; the transitive degree-2 group is
    primitive.

    The minimal block containing a point and x depends only on the suborbit
    of x (Atkinson, Math. Comp. 29, 1975), so one probe per non-trivial
    suborbit suffices. The suborbits at any point serve; these are at 0. A
    regular group (trivial stabilizer) is primitive iff its degree is prime."""
    if not is_transitive(G):
        return False
    return _is_primitive_at(G, 0, orbits(point_stabilizer(G, 0)))


def _is_primitive_at(G: PermGroup, point: int, suborbits) -> bool:
    """is_primitive for a transitive G, given the orbits of the stabilizer of
    point: one unchecked probe per suborbit other than (point,)."""
    if all(len(orb) == 1 for orb in suborbits):
        return is_prime(G.degree)
    return all(
        _minimal_block_system(G, (point, orb[0])).num_blocks == 1
        for orb in suborbits
        if orb[0] != point
    )


def elements(G: PermGroup, cap: int = ELEMENTS_CAP) -> list[Permutation]:
    """All elements, deterministically enumerated from the stabilizer chain.
    Errors when |G| exceeds the cap (the error carries the actual order)."""
    n = order(G)
    if n > cap:
        raise CapExceeded("group order", n, cap)
    return G.bsgs._chain.elements_iter()


def normalizer_small(G: PermGroup, H: PermGroup, cap: int = ELEMENTS_CAP) -> PermGroup:
    """Normalizer of H in G by scanning all elements of G (cap-gated)."""
    if H.degree != G.degree:
        raise ValueError("degree mismatch")
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")
    hb = H.bsgs
    gens: list[Permutation] = []
    chain = _Chain(G.degree)
    for g in elements(G, cap):
        conj_ok = all(
            hb.sift(compose(compose(inverse(g), x), g)) is None for x in H.generators
        )
        if conj_ok and chain.add_generator(g):
            gens.append(g)
    label = f"N({H.label})" if H.label else "normalizer"
    return PermGroup(G.degree, gens or [Permutation.identity(G.degree)], label=label)


def sylow_subgroup_small(G: PermGroup, p: int, cap: int = ELEMENTS_CAP) -> PermGroup:
    """A Sylow p-subgroup, grown greedily: start from a p-element of maximal
    order, then repeatedly adjoin p-elements of the current normalizer until
    the full p-part of |G| is reached. Cap-gated by element enumeration."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = order(G)
    p_part = 1
    m = n
    while m % p == 0:
        p_part *= p
        m //= p
    label = f"Sylow_{p}({G.label})" if G.label else f"Sylow_{p}"
    if p_part == 1:
        return PermGroup(G.degree, [Permutation.identity(G.degree)], label=label)
    elems = elements(G, cap)
    best = None
    best_order = 0
    for g in elems:
        o = g.order()
        if o > best_order and prime_factors(o) == (p,):
            best, best_order = g, o
    assert best is not None, "Cauchy guarantees a p-element"
    current = PermGroup(G.degree, [best], label=label)
    while order(current) < p_part:
        N = normalizer_small(G, current, cap)
        grown = False
        for g in elements(N, cap):
            o = g.order()
            if prime_factors(o) != (p,):
                continue
            if contains(current, g):
                continue
            current = PermGroup(
                G.degree, list(current.generators) + [g], label=label
            )
            grown = True
            break
        assert grown, "normalizer of a non-Sylow p-subgroup must grow it"
    return current
