"""Trial-division number theory for the small integers the toolkit meets:
degrees, group and element orders, field sizes."""
from __future__ import annotations

__all__ = ["prime_factors", "is_prime"]


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
