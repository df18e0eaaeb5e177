"""Trial-division number theory for the small integers the toolkit meets:
degrees, group and element orders, field sizes; and their coprime cliques."""
from __future__ import annotations

from math import gcd

__all__ = ["prime_factors", "is_prime", "maximum_cliques"]


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending; () for 1."""
    if n < 1:
        raise ValueError("need a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == (n,)


def maximum_cliques(values) -> list[tuple[int, ...]]:
    """All maximum cliques of the coprimality graph, each sorted ascending."""
    verts = tuple(sorted(set(values)))
    adj = {v: {u for u in verts if u != v and gcd(u, v) == 1} for v in verts}
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
