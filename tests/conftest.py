"""Shared brute-force oracles for the test suite.

These deliberately avoid the package's stabilizer-chain machinery: element
sets come from Cayley-graph closure over image tuples, stabilizers and
orbits from filtering those sets, block systems from naive partition
refinement. They are slow and only used on small groups.
"""
from __future__ import annotations

import re

import numpy as np

from subdeg.perm import CycleParseError, Permutation, compose, inverse, parse_cycles
from subdeg.groups import PermGroup, order


def make_group(degree, *cycle_strings, label=None):
    gens = [parse_cycles(s, degree) for s in cycle_strings]
    return PermGroup(degree, gens, label=label)


def full_order(G: PermGroup) -> int:
    """Order from a chain built without the constructor's closed-form bound
    on |G|, so that an order oracle does not compare a formula with itself."""
    return order(PermGroup(G.degree, G.generators))


def closure_elements(degree: int, gens) -> list[Permutation]:
    """All products of the generators, by breadth-first closure."""
    ident = Permutation.identity(degree)
    seen = {ident}
    out = [ident]
    qi = 0
    while qi < len(out):
        x = out[qi]
        qi += 1
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def brute_normalizer(elems, sub_elems) -> list[Permutation]:
    """The elements g of a group that conjugate every element of a
    subgroup back into it, both given as element lists."""
    sub = set(sub_elems)
    return [g for g in elems if all(compose(compose(inverse(g), h), g) in sub for h in sub_elems)]


def brute_stabilizer(elems, point: int) -> list[Permutation]:
    return [g for g in elems if g(point) == point]


def brute_orbits(elems, degree: int) -> list[tuple[int, ...]]:
    """Orbit partition of the point set under a set of permutations."""
    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = set()
        frontier = [start]
        while frontier:
            x = frontier.pop()
            if x in orb:
                continue
            orb.add(x)
            for g in elems:
                y = g(x)
                if y not in orb:
                    frontier.append(y)
        for x in orb:
            seen[x] = True
        orbits.append(tuple(sorted(orb)))
    return sorted(orbits, key=lambda o: o[0])


def brute_blocks(elems, degree: int, pair) -> list[tuple[int, ...]]:
    """Finest congruence containing the pair, by naive refinement over all
    group elements."""
    labels = list(range(degree))

    def relabel(a, b):
        keep, drop = min(a, b), max(a, b)
        for i in range(degree):
            if labels[i] == drop:
                labels[i] = keep

    relabel(labels[pair[0]], labels[pair[1]])
    changed = True
    while changed:
        changed = False
        for g in elems:
            for x in range(degree):
                for y in range(degree):
                    if labels[x] == labels[y] and labels[g(x)] != labels[g(y)]:
                        relabel(labels[g(x)], labels[g(y)])
                        changed = True
    classes = {}
    for x in range(degree):
        classes.setdefault(labels[x], []).append(x)
    return sorted((tuple(sorted(c)) for c in classes.values()), key=lambda c: c[0])


def embed(p: Permutation, degree: int, offset: int) -> Permutation:
    """The permutation acting as p on offset..offset+p.degree-1, fixing the rest."""
    images = np.arange(degree, dtype=np.int64)
    images[offset : offset + p.degree] = p.images + offset
    return Permutation(images)


def direct_sum(G: PermGroup, H: PermGroup, label=None) -> PermGroup:
    """G x H acting on the disjoint union of the two point sets."""
    n = G.degree + H.degree
    gens = [embed(g, n, 0) for g in G.generators]
    gens += [embed(h, n, G.degree) for h in H.generators]
    return PermGroup(n, gens, label=label)


# one token: optional whitespace, then an ASCII integer, any other single
# character, or the end of the text (an empty token)
_TOKEN = re.compile(r"\s*([0-9]+|.|\Z)", re.S)


def scan_cycles(text: str, degree: int) -> tuple[int, ...]:
    """The 0-based images that 1-based cycle notation gives, read one token
    at a time, or a CycleParseError at the first error, with its line and
    column: the token scanner that parse_cycles used before it matched the
    whole grammar at once, kept as its oracle."""

    def error(pos: int, message: str) -> CycleParseError:
        line = text.count("\n", 0, pos) + 1
        col = pos - text.rfind("\n", 0, pos)
        return CycleParseError(f"line {line} column {col}: {message}")

    def expected(m: re.Match, what: str) -> CycleParseError:
        found = repr(m[1][0]) if m[1] else "end of input"
        return error(m.start(1), f"expected {what}, found {found}")

    images = list(range(degree))
    used: set[int] = set()
    width = len(str(degree))
    tokens = _TOKEN.finditer(text)
    m = next(tokens)
    first_cycle = True
    while m[1]:
        if m[1] != "(":
            raise expected(m, "'('")
        m = next(tokens)
        if first_cycle and m[1] == ")":
            m = next(tokens)
            if m[1]:
                raise error(m.start(1), "unexpected input after '()'")
            break
        first_cycle = False
        cyc: list[int] = []
        while True:
            if not (m[1].isascii() and m[1].isdigit()):
                raise expected(m, "an integer")
            digits = m[1].lstrip("0") or "0"
            val = int(digits) if len(digits) <= width else degree + 1
            if val < 1 or val > degree:
                raise error(m.end(1), f"point {digits} outside 1..{degree}")
            if val - 1 in used:
                raise error(m.end(1), f"repeated point {val}")
            used.add(val - 1)
            cyc.append(val - 1)
            m = next(tokens)
            if m[1] != ",":
                break
            m = next(tokens)
        if m[1] != ")":
            raise expected(m, "')'")
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
        m = next(tokens)
    return tuple(images)
