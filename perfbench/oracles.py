"""Independent oracles for the benchmark's correctness checks.

Nothing here imports subdeg: orders come from closed forms, coprime sets
from exhaustive subset search, verdicts from the subdegree list alone, and
orbits from a plain breadth-first search over generator image lists parsed
by this module's own cycle parser.
"""
from __future__ import annotations

from itertools import combinations
from math import factorial, gcd, prod

J1_ORDER = 175560  # 2^3 * 3 * 5 * 7 * 11 * 19
J1_SUBDEGREES = (1, 11, 12, 110, 132)

# Total number of subgroups (not conjugacy classes), from the literature.
SUBGROUP_COUNTS = {"S4": 30, "S5": 156, "PSL(2,7)": 179, "A6": 501, "PSL(2,11)": 620}


def alt_order(n: int) -> int:
    return factorial(n) // 2


def agl_order(d: int, p: int) -> int:
    pd = p**d
    return pd * prod(pd - p**i for i in range(d))


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


FAMILY_ORDERS = {
    "alt": alt_order,
    # the k-subset and partition actions are actions of Alt(n)
    "ksubsets": lambda n, k: alt_order(n),
    "partitions": lambda n, k: alt_order(n),
    "agl": agl_order,
    "psl2": psl2_order,
    "cyclic": lambda n: n,
    "dihedral": lambda n: 2 * n,
}


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def distinct_primes(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def coprime_sets(values) -> tuple[int, tuple[int, ...]]:
    """Exhaustive search over subsets of the distinct values: the number of
    largest pairwise-coprime subsets, and the lexicographically smallest
    one (values ascending)."""
    vals = sorted(set(values))
    if len(vals) > 22:
        raise ValueError(f"{len(vals)} values is too many for exhaustive search")
    for size in range(len(vals), 0, -1):
        hits = [
            c for c in combinations(vals, size)
            if all(gcd(a, b) == 1 for a, b in combinations(c, 2))
        ]
        if hits:
            return len(hits), min(hits)
    return 1, ()


def verdicts(degree: int, order: int, primitive: bool, subdegrees) -> dict:
    """weiss/neumann/theorem verdicts and the coprime clique, recomputed
    from the subdegree list as the paper states them."""
    nontrivial = [d for d in subdegrees if d > 1]
    count, clique = coprime_sets(nontrivial)
    if primitive and not (is_prime(degree) and order == degree):
        largest = max(nontrivial, default=1)
        weiss = "pass" if all(gcd(largest, d) > 1 for d in nontrivial) else "fail"
    else:
        weiss = "not-applicable"
    return {
        "rank": len(subdegrees),
        "distinct_nontrivial_subdegrees": sorted(set(nontrivial)),
        "max_coprime_clique": list(clique),
        "clique_size": len(clique),
        "clique_count": count,
        "weiss_ok": weiss,
        "neumann_ok": len(subdegrees) >= 2 ** len(clique),
        "theorem_ok": (len(clique) <= 2) if primitive else None,
    }


def check_report(rep: dict, order: int | None = None) -> list[str]:
    """Problems with one report dict (the verify-corpus / report_to_dict
    shape). Checks the invariants every transitive report must satisfy and
    the verdicts recomputed from its subdegrees; `order` is the closed-form
    group order when one is known."""
    name = rep["name"]
    errs = []
    got_order = int(rep["order"])
    if order is not None and got_order != order:
        errs.append(f"{name}: order {got_order}, closed form {order}")
    if not rep["transitive"]:
        if rep["primitive"] or rep["subdegrees"] is not None:
            errs.append(f"{name}: intransitive report carries analysis fields")
        return errs
    n, subs = rep["degree"], rep["subdegrees"]
    if sum(subs) != n:
        errs.append(f"{name}: subdegrees sum to {sum(subs)}, degree is {n}")
    if got_order % n or any((got_order // n) % d for d in subs):
        errs.append(f"{name}: subdegrees {subs} do not divide |G|/n = {got_order}/{n}")
    want = verdicts(n, got_order, rep["primitive"], subs)
    for key, value in want.items():
        if key in rep and rep[key] != value:
            errs.append(f"{name}: {key} = {rep[key]!r}, oracle says {value!r}")
    return errs


def parse_generator(entry, degree: int) -> list[int]:
    """0-based image list of a group-file generator: a 1-based cycle string
    such as "(1,2,3)(4,5)" or a 1-based image list."""
    if isinstance(entry, list):
        return [int(x) - 1 for x in entry]
    images = list(range(degree))
    for cycle in entry.replace(" ", "").split(")"):
        if not cycle:
            continue
        pts = [int(x) - 1 for x in cycle.lstrip("(").split(",") if x]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def orbit_count(degree: int, gens) -> int:
    """Number of orbits of the group generated by 0-based image lists."""
    seen = [False] * degree
    count = 0
    for start in range(degree):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count
