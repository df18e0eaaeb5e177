"""Permutation groups: Schreier-Sims, orbits, stabilizers, coset actions,
block systems, primitivity, and small-group searches.

Two runs over the same generators produce identical chains. Base points
are chosen as the smallest moved point and orbits explored breadth-first
with generators in list order. A group with a proven order bound draws
its random elements from a fixed seed; every other group gets the
deterministic Schreier-Sims, with no randomization. Either way a level
grows its basic orbit in place when it gains generators, and keeps its
Schreier tree and transversal memos. The chain memoizes and multiplies
stored images through the one kernel for its degree (perm._kernel), reads
each generator's images once, and wraps in a Permutation only the residues
it installs or returns and the representatives it hands out.
"""
from __future__ import annotations

import random
from collections import Counter
from typing import NamedTuple

from .numtheory import is_prime
from .perm import Permutation, _identity, _identity_raw, _inv, _kernel, _wrap, compose, inverse

__all__ = [
    "PermGroup",
    "Bsgs",
    "BlockSystem",
    "CapExceeded",
    "ELEMENTS_CAP",
    "DEGREE_CAP",
    "orbit",
    "orbits",
    "schreier_sims",
    "order",
    "contains",
    "point_stabilizer",
    "coset_action",
    "minimal_block_system",
    "is_primitive",
    "is_transitive",
    "elements",
    "sylow_subgroup_small",
    "fixed_points",
    "is_subgroup",
]

ELEMENTS_CAP = 200_000
DEGREE_CAP = 100_000  # points of a coset, k-subset or partition action, or a group file


class CapExceeded(ValueError):
    """A configured size bound was exceeded; carries the value and the cap.
    A constructor's degree count stops once it passes cap**2, before any work
    that grows with the parameters (`constructions._capped_count`); `value`
    is then that partial count, a lower bound on the degree."""

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

    _order_bound: int | None = None  # closed-form bound on |G|, set only by constructions

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
    """One level of the stabilizer chain: a base point, the strong
    generators fixing the earlier base points, in install order, the basic
    orbit with its Schreier vector, and the transversal, whose elements and
    their inverses are built only when read (see `_rep`). The level
    multiplies stored images through its chain's kernel `k` (perm._Kernel),
    and keeps each generator's image sequence, table and inverse's table in
    `seqs`, `tables` and `inv_tables`, beside `gens`, built once per chain
    when `Bsgs._install` adds it. The forward memos hold images and the
    inverse memos tables, the form `then` takes on its right; only `rep`
    wraps one in a Permutation, as an image, for readers outside the chain.
    New generators grow the orbit in place, keeping the tree and the memos
    (`orbit`), in both the random and the deterministic run. `Bsgs._close`
    forms Schreier generators from `gens[:scan]`, which ends at the last
    generator that came from above; by Schreier's lemma the later ones,
    residues found at this level or deeper, add nothing (see
    `Bsgs._install`). `full` is degree - depth, the most points the basic
    orbit can hold: each generator at depth i fixes the i base points above
    it."""

    __slots__ = (
        "point", "gens", "seqs", "tables", "inv_tables", "scan", "orbit_list", "schreier",
        "orbit_gens", "trans", "trans_inv", "k", "full",
    )

    def __init__(self, point: int, degree: int, depth: int, k):
        self.point = point
        self.full = degree - depth
        self.gens: list[Permutation] = []
        self.seqs: list = []  # gens[i].image_seq()
        self.tables: list = []  # k.table of gens[i]'s image
        self.inv_tables: list = []  # k.table of gens[i]'s inverse's image
        self.scan = 0  # Schreier generators come from gens[:scan]
        self.orbit_list, self.schreier = [point], {point: (-1, point)}
        self.orbit_gens = 0  # len(gens) when orbit_list and schreier were last grown
        e = _identity(degree)
        self.trans = {point: e}  # orbit point -> image of its coset representative, filled by _rep
        self.trans_inv = {point: k.table(e)}  # orbit point -> table of its inverse, filled by _rep
        self.k = k

    def orbit(self) -> list[int]:
        """The basic orbit, grown in place: old points try only the generators
        added since the last call (the others took them into the orbit
        already), new points every generator, in list order. No tree edge
        changes, so the memos stay valid. An orbit that holds `full` points
        can gain none, so it is not walked again. The one walk that builds a
        Schreier tree; `_orbit_walk` is the walk without one."""
        seqs, grown = self.seqs, self.orbit_gens
        if grown != len(seqs) and len(self.orbit_list) < self.full:
            orb, vec = self.orbit_list, self.schreier
            images = list(enumerate(seqs))[grown:]
            old = len(orb)
            for i, a in enumerate(orb):
                if i == old and grown:  # the first new point tries every generator
                    images = list(enumerate(seqs))
                for gi, img in images:
                    b = img[a]
                    if b not in vec:
                        vec[b] = (gi, a)
                        orb.append(b)
        self.orbit_gens = len(seqs)
        return self.orbit_list

    def rep(self, b: int, inv: bool = False) -> Permutation:
        """The transversal element carrying the base point to the orbit point
        b, or its inverse. The orbit must be current (see `orbit`). An
        inverse's table is cut to the image, so no table leaves the chain."""
        return _wrap(self._rep(b, inv)[: len(self.trans[self.point])])

    def _rep(self, b: int, inv: bool = False):
        """rep(b, inv) as the chain keeps it: the image of the element, or
        the table of the inverse (perm._Kernel). The first read walks the
        Schreier vector, without recursion, up to a point already built and
        memoizes every point on the path, in the memo it reads: u_c =
        then(u_p, g) for the edge from p to c by the generator g, and u_c^-1
        = then(g^-1, u_p^-1) on tables, so an inverse is built from its
        parent's inverse and g's kept inverse (`inv_tables`), never by
        inverting u_c, and reading it builds no forward representative."""
        trans = self.trans_inv if inv else self.trans
        u = trans.get(b)
        if u is not None:
            return u
        vec = self.schreier
        path = []
        while b not in trans:
            path.append(b)
            b = vec[b][1]
        u = trans[b]
        then = self.k.then
        if inv:
            inv_tables = self.inv_tables
            for c in reversed(path):
                u = trans[c] = then(inv_tables[vec[c][0]], u)
        else:
            tables = self.tables
            for c in reversed(path):
                u = trans[c] = then(u, tables[vec[c][0]])
        return u


class Bsgs:
    """Base and strong generating set: the Schreier-Sims stabilizer chain,
    grown by `_install` and completed by `_close`, or by random residues
    up to a proven order (see schreier_sims). Each
    level holds its own generators, basic orbit and Schreier vector; its
    transversal elements are built on demand. The chain binds the kernel
    for its degree once (perm._kernel) and shares it with its levels."""

    def __init__(self, degree: int, base_prefix=()):
        self.degree = degree
        self.levels: list[_Level] = []
        self._k = _kernel(degree)
        for pt in dict.fromkeys(base_prefix):
            if not 0 <= pt < degree:
                raise ValueError(f"base point {pt} out of range")
            self.levels.append(_Level(pt, degree, len(self.levels), self._k))

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lv.point for lv in self.levels)

    @property
    def strong_generators(self) -> tuple[Permutation, ...]:
        return tuple(self.levels[0].gens) if self.levels else ()

    @property
    def order(self) -> int:
        """Product of the basic orbit lengths; |G| once the chain is complete,
        and never more than |G| (see schreier_sims)."""
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit())
        return n

    def _install(self, g: Permutation, origin: int = -1) -> int:
        """Register a non-identity strong generator; returns its deepest level.

        `origin` is the level whose Schreier generator sifted to g, or -1 for
        a generator from outside the chain. g lies in the group of every
        level l <= origin, and by Schreier's lemma Schreier generators from
        any generating set of a level's group generate the next one; so g
        extends `scan` only at the levels l > origin, where it came from
        above. g's image sequence, its table and its inverse's table are
        built here, once per chain, and every level it joins shares them."""
        seq = g.image_seq()
        i = next((l for l, lv in enumerate(self.levels) if seq[lv.point] != lv.point), None)
        if i is None:
            first_moved = next(x for x, y in enumerate(seq) if x != y)
            i = len(self.levels)
            self.levels.append(_Level(first_moved, self.degree, i, self._k))
        table, inv_table = self._k.table(g._img), self._k.table(_inv(g._img))
        for l, lv in enumerate(self.levels[: i + 1]):
            lv.gens.append(g)
            lv.seqs.append(seq)
            lv.tables.append(table)
            lv.inv_tables.append(inv_table)
            if l > origin:
                lv.scan = len(lv.gens)
        return i

    def sift(self, p: Permutation) -> Permutation | None:
        """Residue of p reduced through every level; None when p sifts to
        the identity, which in a complete chain means p is a member."""
        residue = self._sift(p._img, 0)
        return None if residue is None else _wrap(residue)

    def _sift(self, x, start: int):
        """`sift` on the stored image x: the residue's image, or None. A
        step reads the point with the kernel's `at` and multiplies by an
        inverse's table with `then`, so x stays an image. Every
        level it visits is current, so none is refreshed: a `_Level` starts
        with its one-point orbit and Schreier vector; `_close` grows a level
        when it starts scanning it, sifts only into deeper levels, grown
        since their last new generator, and leaves every level current; and
        `_random_residues` grows every level after every install."""
        then, at = self._k.then, self._k.at
        for lv in self.levels[start:]:
            delta = at(x, lv.point)
            if delta == lv.point:
                continue
            if delta not in lv.schreier:
                return x
            x = then(x, lv._rep(delta, True))
        return None if self._k.raw(x) == _identity_raw(self.degree) else x

    def _close(self, from_level: int) -> None:
        """Re-establish the chain invariant from `from_level` upwards.

        Level i forms Schreier generators only from `gens[:scan]`. Every
        deeper level is closed when level i is scanned, so if that prefix
        yields no residue, level i is closed too and the skipped Schreier
        generators would have sifted to the identity. The residues, and
        their order, are those of a scan over every generator. A Schreier
        generator is formed by the kernel's `then` from a representative's
        image, the generator's table and an inverse's table, and sifted as
        an image, whose bytes `raw` reads once, for both the identity test
        and the record below; only a residue to install becomes a
        Permutation.

        A Schreier generator that sifts to the identity from level i + 1 is
        recorded, by its level and full image bytes, and not sifted again
        when level i is rescanned after an install. While level i is scanned
        every deeper level is complete, so the element lies in <S_(i+1)>;
        S_(i+1) only grows, and the deeper levels are complete again at the
        rescan, so it would sift to the identity again.

        A rescan also forms none of those again. `taken` records, per level
        and generator, how many orbit points the scans of this call have
        taken; a rescan starts each generator there, at the pair whose
        residue was just installed. The pairs before it were tree edges,
        identities or recorded members, and stay so: the tree, the orbit's
        order and the memos only grow. Every pair a full rescan would sift
        is sifted, in the same order, so the residues, and their order, are
        unchanged."""
        i = min(from_level, len(self.levels) - 1)
        then, raw = self._k.then, self._k.raw
        known = set()  # (level, image bytes) of each Schreier generator that sifted trivially
        taken: dict[int, list[int]] = {}  # level -> orbit points taken per generator of gens[:scan]
        identity = _identity_raw(self.degree)
        while i >= 0:
            lv = self.levels[i]
            orb = lv.orbit()
            vec, rep = lv.schreier, lv._rep
            done = taken.setdefault(i, [])
            done += [0] * (lv.scan - len(done))
            restart = False
            for gi in range(lv.scan):
                if done[gi] == len(orb):
                    continue
                img, t = lv.seqs[gi], lv.tables[gi]
                for pos in range(done[gi], len(orb)):
                    a = orb[pos]
                    b = img[a]
                    if vec.get(b) == (gi, a):
                        continue  # tree edge, Schreier generator is trivial
                    sg = then(then(rep(a), t), rep(b, True))
                    sg_raw = raw(sg)
                    if sg_raw == identity:
                        continue
                    key = (i, sg_raw)
                    if key in known:
                        continue
                    residue = self._sift(sg, i + 1)
                    if residue is None:
                        known.add(key)
                        continue
                    done[gi] = pos
                    i = self._install(_wrap(residue), i)
                    restart = True
                    break
                if restart:
                    break
                done[gi] = len(orb)
            if not restart:
                i -= 1

    def elements(self) -> list[Permutation]:
        """All elements, deterministically: transversal products, deepest first."""
        elts = [Permutation.identity(self.degree)]
        for lv in reversed(self.levels):
            orb = lv.orbit()
            if len(orb) == 1:
                continue
            nxt = []
            for pt in sorted(orb):
                if pt == lv.point:
                    nxt.extend(elts)
                else:
                    u = lv.rep(pt)
                    for h in elts:
                        nxt.append(compose(h, u))
            elts = nxt
        return elts


def schreier_sims(G: PermGroup, base_prefix=()) -> Bsgs:
    """Schreier-Sims: same input, same chain, every run.

    Level i holds the generators S_i that fix the base points above it,
    with S_i containing S_(i+1), and its basic orbit is the orbit of its
    base point under <S_i>. S_(i+1) fixes that point, so <S_(i+1)> lies in
    its stabilizer in <S_i>, and |<S_i>| >= |orbit_i| |<S_(i+1)>|; hence
    |<S_i>| >= prod_(j>=i) |orbit_j|. At level 0 this reads |G| >= `order`,
    and equality forces equality at every level, so <S_(i+1)> is the whole
    stabilizer in <S_i> and <S_i> is G^(i), the pointwise stabilizer of
    the base points above level i: the chain is complete.

    A group built in `constructions` carries a closed-form `_order_bound`
    >= |G|. Its chain sifts seeded random elements (`_random_residues`)
    until `order` reaches the bound, which by the argument above proves it
    complete with no verification pass. If the bound is not reached, as for
    a group acting with a kernel, the chain is completed by `_close`.

    Every other group gets the deterministic run: each level forms
    Schreier generators only from G's generators and the residues found at
    levels above it, the ones that can enlarge its group (Schreier's lemma;
    see `Bsgs._install`). The chain is the one a scan of every generator
    builds, from fewer sifts (see `Bsgs._close`). Both runs grow each
    level's orbit in place after an install (`_Level.orbit`); the argument
    above holds for any Schreier tree."""
    chain = Bsgs(G.degree, base_prefix)
    for g in G.generators:
        chain._install(g)
    bound = G._order_bound
    if bound is None or not _random_residues(chain, G.generators, bound):
        chain._close(len(chain.levels) - 1)
    return chain


def _random_residues(chain: Bsgs, gens, bound: int) -> bool:
    """Sift product-replacement elements of <gens> through the chain and
    install each non-trivial residue until the basic orbit lengths multiply
    to `bound`; True then. False once the product passes the bound or 30
    sifts in a row come out trivial. Reading `chain.order` after each
    install grows the levels the residue joined (`_Level.orbit`).

    Product replacement (Celler, Leedham-Green, Murray, Niemeyer and
    O'Brien, 1995) keeps 10 slots, filled from gens in turn. A step
    multiplies a random slot by another, on a random side, and the
    accumulator x by the result; 10 steps run before the first draw. The
    stream comes from `random.Random(0).random()` alone, whose output
    Python keeps fixed across versions."""
    order = chain.order
    if order == bound or not gens:  # a trivial group has nothing to draw
        return order == bound
    rng = random.Random(0).random
    slots = [gens[k % len(gens)] for k in range(10)]
    x = Permutation.identity(chain.degree)

    def step() -> Permutation:
        nonlocal x
        i = int(rng() * 10)
        j = int(rng() * 9)
        j += j >= i
        slots[i] = compose(slots[i], slots[j]) if rng() < 0.5 else compose(slots[j], slots[i])
        x = compose(x, slots[i])
        return x

    for _ in range(10):
        step()
    trivial = 0
    while order < bound and trivial < 30:
        residue = chain.sift(step())
        if residue is None:
            trivial += 1
        else:
            chain._install(residue)
            order, trivial = chain.order, 0
    return order == bound


def orbit(G: PermGroup, point: int) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """Orbit of a point (breadth-first discovery order, generators in list
    order) and its Schreier vector mapping each orbit point to (generator
    index, predecessor), the point to (-1, point); grown as `_Level.orbit`."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    lv = _Level(point, G.degree, 0, _kernel(G.degree))
    lv.gens.extend(G.generators)
    lv.seqs.extend(g.image_seq() for g in G.generators)  # no tables: no representative is read
    return tuple(lv.orbit()), lv.schreier


def orbits(G: PermGroup) -> list[tuple[int, ...]]:
    """Every orbit, each in breadth-first order from its smallest point,
    listed by that point, as `orbit` lists them (`_orbit_walk`)."""
    return list(_orbit_walk(G))


def _orbit_walk(G: PermGroup):
    """Yield the orbits that `orbits` lists, one at a time, so a caller can
    stop after the first. One pass reads each generator's images once and
    builds no tree, which only a transversal needs (`_Level.orbit`): a tree
    per orbit cost several times as much on the trivial group of degree
    431."""
    images = [g.image_seq() for g in G.generators]
    seen = bytearray(G.degree)
    for start in range(G.degree):
        if not seen[start]:
            seen[start] = 1
            orb = [start]
            for a in orb:
                for img in images:
                    b = img[a]
                    if not seen[b]:
                        seen[b] = 1
                        orb.append(b)
            yield tuple(orb)


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
    """One orbit. A group that holds its chain reads it: level 0 holds the
    orbit of its base point under G, and a chain with no level is the
    trivial group's, transitive only on one point. Any other group is not
    given a chain for this; its walk stops after the orbit of 0."""
    if G._bsgs is not None:
        levels = G._bsgs.levels
        return (len(levels[0].orbit()) if levels else 1) == G.degree
    return len(next(_orbit_walk(G))) == G.degree


def point_stabilizer(G: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point, read off G's cached chain: the level-1
    generators generate the stabilizer of the first base point b, and the
    level-0 transversal element u carrying b to the point conjugates them
    into the stabilizer of the point. A point outside b's orbit (intransitive
    or trivial G) gets a chain rebuilt with that point as first base point."""
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    chain = G.bsgs
    if not chain.levels or point not in chain.levels[0].schreier:
        chain = schreier_sims(G, base_prefix=(point,))
    top = chain.levels[0]
    u, u_inv = top.rep(point), top.rep(point, inv=True)
    level1 = chain.levels[1].gens if len(chain.levels) > 1 else []
    gens = [compose(compose(u_inv, g), u) for g in level1]
    label = f"Stab({point})" if G.label is None else f"{G.label}.stab({point})"
    return PermGroup(G.degree, gens, label=label)


def fixed_points(H: PermGroup) -> tuple[int, ...]:
    """Points fixed by every generator."""
    imgs = [g.image_seq() for g in H.generators]
    return tuple(x for x in range(H.degree) if all(img[x] == x for img in imgs))


def _canonical_coset_rep(chain: Bsgs, g: Permutation) -> Permutation:
    """The element of the right coset H*g with the least images of the base
    points of `chain`, a complete chain of H, in base order. The elements of
    H*g with the least images of the earlier base points form a coset H'*c,
    H' their stabilizer in H, and carry the next base point b onto the image
    under c of b's basic orbit; so a greedy choice per level finds the least
    images. Base images determine an element of H, and so one of H*g: the
    element is unique."""
    cur = g
    for lv in chain.levels:
        best = min(lv.orbit(), key=cur.image_seq().__getitem__)
        if best != lv.point:
            cur = compose(lv.rep(best), cur)
    return cur


def coset_action(G: PermGroup, H: PermGroup) -> tuple[PermGroup, tuple[Permutation, ...]]:
    """Action of G on the right cosets of H, with the coset transversal.

    Coset i corresponds to H*transversal[i]; coset 0 is H itself. Cosets are
    numbered breadth-first from H, so the action does not depend on the
    representatives: each the least-base-image element on H's own chain
    (`_canonical_coset_rep`). Errors when H is not a subgroup of G or the
    index exceeds DEGREE_CAP.
    """
    if H.degree != G.degree:
        raise ValueError("degree mismatch between group and subgroup")
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")
    chain = H.bsgs
    index = order(G) // chain.order
    if index > DEGREE_CAP:
        raise CapExceeded("coset index", index, DEGREE_CAP)
    reps = [_canonical_coset_rep(chain, Permutation.identity(G.degree))]
    lookup = {reps[0]: 0}
    images = [[] for _ in G.generators]
    for r in reps:  # grows while it is walked
        for gi, s in enumerate(G.generators):
            rep = _canonical_coset_rep(chain, compose(r, s))
            j = lookup.setdefault(rep, len(reps))
            if j == len(reps):
                reps.append(rep)
            images[gi].append(j)
    assert len(reps) == index, "coset enumeration disagrees with the index"
    induced = [Permutation(img) for img in images]
    label = f"{G.label or 'G'} on {index} cosets"
    K = PermGroup(index, induced, label=label)
    return K, tuple(reps)


class BlockSystem(NamedTuple):
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
    find = _merge_classes(G, pair, n)
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


def _merge_classes(G: PermGroup, pair: tuple[int, int], stop: int):
    """Union-find refinement from the pair to the finest G-congruence
    joining it: its find function, or None as soon as a class holds more
    than `stop` points."""
    parent = list(range(G.degree))
    size = [1] * G.degree

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    imgs = [g.image_seq() for g in G.generators]
    queue = [pair]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        size[rx] += size[ry]
        if size[rx] > stop:
            return None
        for img in imgs:
            queue.append((img[x], img[y]))
    return find


def _pair_spans_all(G: PermGroup, pair: tuple[int, int]) -> bool:
    """minimal_block_system(G, pair).num_blocks == 1, without building the
    system: the refinement stops once a class holds more than half the
    points, since a proper block of a transitive group holds at most half."""
    return _merge_classes(G, pair, G.degree // 2) is None


def is_primitive(G: PermGroup) -> bool:
    """Transitive with no proper non-trivial block system. Degree-1 and
    intransitive groups report False; the transitive degree-2 group is
    primitive.

    The minimal block containing a point and x depends only on the suborbit
    of x (Atkinson, Math. Comp. 29, 1975), so one probe per non-trivial
    suborbit suffices, and suborbit lengths rule most of them out (see
    `_is_primitive_at`). The suborbits at any point serve; these are at 0.
    A block's size divides the degree, so a prime degree needs no probe, and
    a regular group (trivial stabilizer) of composite degree is
    imprimitive. A group without a chain is not given one to answer
    "intransitive" (see `is_transitive`)."""
    if not is_transitive(G):
        return False
    return _is_primitive_at(G, 0, [(orb[0], len(orb)) for orb in orbits(point_stabilizer(G, 0))])


def _is_primitive_at(G: PermGroup, point: int, suborbits) -> bool:
    """is_primitive for a transitive G, given the orbits of the stabilizer of
    point as (representative, length) pairs, as `SuborbitProfile` lists
    them: one unchecked probe per suborbit other than the point's own that
    could lie in a proper block.

    A block B containing point is fixed by its stabilizer, since Bg meets B
    at point for every g in it; so B is {point} together with whole
    suborbits, and |B| divides the degree n. A proper block through a
    suborbit of length l therefore has a size d | n, 1 < d <= n/2, equal to
    1 + l plus a sum of other suborbit lengths. One bitset subset sum of the
    lengths, one copy of l left out, answers this once per distinct l; a
    suborbit whose length reaches no such d is not probed, since its probe
    could only answer "spans all"."""
    n = G.degree
    if is_prime(n):
        return True
    lengths = Counter(length for rep, length in suborbits if rep != point)
    if set(lengths) <= {1}:
        return False
    half = n // 2
    mask = (1 << (half + 1)) - 1
    sizes = sum(1 << d for d in range(2, half + 1) if n % d == 0)
    open_lengths = set()
    for l in lengths:
        sums = 1  # bit s set: some sub-multiset of the other lengths sums to s
        for m, k in lengths.items():
            k -= m == l
            chunk = 1
            while k > 0:  # k copies of m as chunks 1, 2, 4, ...: every count 0..k
                take = min(chunk, k)
                sums = (sums | sums << m * take) & mask
                k -= take
                chunk *= 2
        if sums << (1 + l) & sizes:
            open_lengths.add(l)
    return all(
        _pair_spans_all(G, (point, rep))
        for rep, length in suborbits
        if rep != point and length in open_lengths
    )


def elements(G: PermGroup) -> list[Permutation]:
    """All elements, deterministically enumerated from the stabilizer chain.
    Errors when |G| exceeds ELEMENTS_CAP (the error carries the actual order)."""
    n = order(G)
    if n > ELEMENTS_CAP:
        raise CapExceeded("group order", n, ELEMENTS_CAP)
    return G.bsgs.elements()


def sylow_subgroup_small(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown on one chain from P = 1 by adjoining, in
    element order, the first g of G outside P with g^p in P and every
    generator adjoined so far conjugated by g back into P. Such a g
    normalizes P and has order p modulo P, so |<P, g>| = p|P|. One exists
    while P is not Sylow: P is then a proper subgroup of a Sylow subgroup S,
    normalizers grow in p-groups, so N_S(P)/P is a non-trivial p-subgroup
    of N_G(P)/P, and by Cauchy it holds a coset gP of order p. Returns the
    adjoined elements as generators and the chain they grew, closed after
    each, as P's own. Cap-gated by element enumeration."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n, p_part = order(G), 1
    while n % (p_part * p) == 0:
        p_part *= p
    chain = Bsgs(G.degree)
    gens: list[Permutation] = []
    elems = elements(G) if p_part > 1 else []
    while chain.order < p_part:
        for g in elems:
            if chain.sift(g) is None:
                continue
            gp = g
            for _ in range(p - 1):
                gp = compose(gp, g)
            if chain.sift(gp) is None and all(
                chain.sift(compose(compose(inverse(g), x), g)) is None for x in gens
            ):
                chain._close(chain._install(g))
                gens.append(g)
                break
        else:
            raise AssertionError("no element extends a non-Sylow p-subgroup")
    label = f"Sylow_{p}({G.label})" if G.label else f"Sylow_{p}"
    P = PermGroup(G.degree, gens, label=label)
    P._bsgs = chain
    return P
