"""Seeded group-file directory for the corpus-sweep workload.

Every seed yields the same number of files of each kind, so every sweep
attempts the same number of operations and the share that fails is fixed:

- six groups from the constructed families with seeded parameters;
- two regular (cyclic) groups of prime degree a little over 400, where
  rank equals degree;
- two transitive imprimitive groups and one intransitive group;
- five malformed files, each of which verify_corpus must turn into a skip
  entry;
- two files with boolean values where integers belong ("degree": true and
  a boolean image entry), the same for every seed. A loader that accepts
  them is at fault: each such entry counts as a failed operation.

Groups are relabelled by a seeded permutation of their points before
write_group stores them, so the same family gives different files for
different seeds. Expected orders come from oracles.py, not from subdeg.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from subdeg import PermGroup, Permutation, alternating, cyclic, dihedral, write_group
from subdeg.corpus import FAMILY_BUILDERS

import oracles

BOOLEAN_FILES = {
    "bad-bool-degree": {"name": "bad-bool-degree", "degree": True, "generators": ["()"]},
    "bad-bool-images": {"name": "bad-bool-images", "degree": 3, "generators": [[2, 3, True]]},
}

REGULAR_PRIMES = (401, 409, 419, 421, 431, 433)


def relabel(G: PermGroup, rng: random.Random, label: str) -> PermGroup:
    """G conjugated by a random permutation of its points."""
    sigma = np.array(rng.sample(range(G.degree), G.degree), dtype=np.int64)
    inv = np.argsort(sigma)
    gens = [Permutation(sigma[g.images[inv]]) for g in G.generators]
    return PermGroup(G.degree, gens, label=label)


def wreath(m: int, k: int) -> PermGroup:
    """Alt(m) wr C_k on m*k points: Alt(m) on the first block plus a cycle
    permuting the k blocks. Imprimitive, order (m!/2)^k * k."""
    n = m * k
    gens = []
    for g in alternating(m).generators:
        img = np.arange(n, dtype=np.int64)
        img[:m] = g.images
        gens.append(Permutation(img))
    gens.append(Permutation((np.arange(n, dtype=np.int64) + m) % n))
    return PermGroup(n, gens)


def disjoint(m: int, k: int) -> PermGroup:
    """Alt(m) on points 0..m-1 and a k-cycle on the next k points."""
    n = m + k
    gens = []
    for g in alternating(m).generators:
        img = np.arange(n, dtype=np.int64)
        img[:m] = g.images
        gens.append(Permutation(img))
    img = np.arange(n, dtype=np.int64)
    img[m:] = m + (np.arange(k) + 1) % k
    gens.append(Permutation(img))
    return PermGroup(n, gens)


def generate(directory: Path, seed: int) -> dict[str, dict]:
    """Write the seed's files into `directory`. Returns, per entry name,
    what the sweep must report: kind ("group", "malformed" or "boolean"),
    and for groups the closed-form order, transitivity and primitivity
    (None where the benchmark asserts nothing)."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    expect: dict[str, dict] = {}

    def put(name: str, G: PermGroup, order: int, primitive: bool | None, transitive=True):
        write_group(directory / f"{name}.json", relabel(G, rng, name))
        expect[name] = {"kind": "group", "order": order, "transitive": transitive,
                        "primitive": primitive}

    families = [
        ("alt", (rng.choice([5, 6, 7, 8]),), True),
        ("psl2", (rng.choice([7, 8, 9, 11, 13]),), True),
        ("agl", (1, rng.choice([7, 11, 13])), True),
        ("agl", (2, rng.choice([3, 5])), True),
        ("ksubsets", (rng.choice([7, 8, 9]), 2), True),
        ("dihedral", (rng.choice([11, 13, 17, 19]),), True),
    ]
    for i, (fam, params, primitive) in enumerate(families):
        name = f"gen-{i:02d}-{fam}-{'-'.join(map(str, params))}"
        put(name, FAMILY_BUILDERS[fam](*params), oracles.FAMILY_ORDERS[fam](*params), primitive)
    for p in rng.sample(REGULAR_PRIMES, 2):
        put(f"gen-regular-{p}", cyclic(p), p, True)
    m, k = rng.choice([3, 4, 5]), rng.choice([2, 3])
    put(f"gen-wreath-{m}-{k}", wreath(m, k), oracles.alt_order(m) ** k * k, False)
    n = rng.choice([15, 21, 25, 27])
    put(f"gen-dihedral-{n}", dihedral(n), 2 * n, False)
    m, k = rng.choice([5, 6, 7]), rng.choice([3, 4, 5])
    put(f"gen-disjoint-{m}-{k}", disjoint(m, k), oracles.alt_order(m) * k, False, transitive=False)

    d = rng.randrange(5, 10)
    ok = [f"({','.join(str(x) for x in range(1, d + 1))})"]
    malformed = {
        "bad-json": '{"name": "bad-json", "degree": %d, "generators": [' % d,
        "bad-no-name": {"degree": d, "generators": ok},
        "bad-out-of-range": {"name": "bad-out-of-range", "degree": d, "generators": [f"(1,{d + 1})"]},
        "bad-short-images": {"name": "bad-short-images", "degree": d,
                             "generators": [list(range(2, d + 1))]},
        "bad-wrong-order": {"name": "bad-wrong-order", "degree": d, "generators": ok,
                            "metadata": {"expected_order": str(d + 1)}},
    }
    for name, payload in malformed.items():
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (directory / f"{name}.json").write_text(text, encoding="utf-8")
        expect[name] = {"kind": "malformed"}
    for name, payload in BOOLEAN_FILES.items():
        (directory / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
        expect[name] = {"kind": "boolean"}
    return expect
