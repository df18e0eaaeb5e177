"""Deterministic constructors for the standard group families, with just
enough finite-field arithmetic to build PSL(2,q) and AGL(d,p).

Every constructor is pure: identical parameters give identical generator
lists, down to the field modulus and primitive element. Orders are checked
against the closed-form formulas in the test suite.
"""
from __future__ import annotations

from itertools import combinations, product
from math import factorial, gcd

import numpy as np

from .groups import PermGroup
from .numtheory import is_prime, prime_factors
from .perm import Permutation

__all__ = [
    "FiniteField",
    "ProjectiveLine",
    "alternating",
    "symmetric",
    "ksubsets_action",
    "partition_action",
    "agl",
    "psl2",
    "dihedral",
    "cyclic",
    "alternating_order",
    "agl_order",
    "psl2_order",
]

MAX_FIELD_SIZE = 1024
PARTITION_DEGREE_CAP = 100_000
AGL_DEGREE_CAP = 10_000


class FiniteField:
    """GF(p^f) for q = p^f <= 1024, elements encoded as integers 0..q-1.

    The integer encoding is the little-endian base-p digit vector of the
    polynomial coefficients, so 0..p-1 are the prime-field constants. The
    modulus is the lexicographically smallest monic irreducible of degree f
    (coefficients compared low-degree-first); this need not be the Conway
    polynomial. The stored primitive element is the smallest element, in
    encoding order, of multiplicative order q-1.
    """

    def __init__(self, q: int):
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds the supported bound {MAX_FIELD_SIZE}")
        if q < 2:
            raise ValueError(f"field size must be at least 2, got {q}")
        primes = prime_factors(q)
        if len(primes) != 1:
            raise ValueError(f"{q} is not a prime power")
        p = primes[0]
        f = 1
        while p**f < q:
            f += 1
        self.q = q
        self.p = p
        self.f = f
        self.modulus = self._find_modulus()
        self._exp, self._log, self.primitive_element = self._build_tables()

    # polynomial helpers: coefficient tuples over GF(p), low degree first

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.f):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits) -> int:
        a = 0
        for c in reversed(digits):
            a = a * self.p + c
        return a

    def _poly_divmod(self, num: list[int], den: list[int]) -> list[int]:
        """Remainder of polynomial division over GF(p); den is monic."""
        p = self.p
        rem = list(num)
        dd = len(den) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
        return rem[:dd]

    def _is_irreducible(self, poly: list[int]) -> bool:
        deg = len(poly) - 1
        if deg == 1:
            return True
        for d in range(1, deg // 2 + 1):
            for tail in product(range(self.p), repeat=d):
                den = list(tail) + [1]
                rem = self._poly_divmod(poly, den)
                if not any(rem):
                    return False
        return True

    def _find_modulus(self) -> tuple[int, ...]:
        for tail in product(range(self.p), repeat=self.f):
            poly = list(tail) + [1]
            if self._is_irreducible(poly):
                return tuple(poly)
        raise AssertionError("no irreducible polynomial found")  # impossible

    def _mul_poly(self, a: int, b: int) -> int:
        da, db = self._decode(a), self._decode(b)
        prod = [0] * (2 * self.f - 1)
        for i, ca in enumerate(da):
            if ca == 0:
                continue
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % self.p
        return self._encode(self._poly_divmod(prod, list(self.modulus)))

    def _build_tables(self):
        q = self.q
        radicals = prime_factors(q - 1)
        for beta in range(1, q):
            if all(self._pow_poly(beta, (q - 1) // r) != 1 for r in radicals):
                break
        else:
            raise AssertionError("no primitive element found")  # impossible
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_poly(acc, beta)
        assert acc == 1, "primitive element order check failed"
        return exp, log, beta

    def _pow_poly(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

    # public arithmetic, table-backed

    def add(self, a: int, b: int) -> int:
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._exp[(-self._log[a]) % (self.q - 1)]


class ProjectiveLine:
    """The q+1 points [x:1] (x in field order) followed by [1:0] at index q."""

    def __init__(self, field: FiniteField):
        self.field = field
        self.size = field.q + 1
        self.infinity = field.q

    def mobius_perm(self, matrix) -> Permutation:
        """The permutation induced by an invertible matrix ((a,b),(c,d)),
        acting on row vectors: finite x maps to (ax+c)/(bx+d)."""
        F = self.field
        (a, b), (c, d) = matrix
        det = F.sub(F.mul(a, d), F.mul(b, c))
        if det == 0:
            raise ValueError("matrix is singular")
        images = np.empty(self.size, dtype=np.int64)
        for x in range(F.q):
            num = F.add(F.mul(x, a), c)
            den = F.add(F.mul(x, b), d)
            images[x] = self.infinity if den == 0 else F.mul(num, F.inv(den))
        images[self.infinity] = self.infinity if b == 0 else F.mul(a, F.inv(b))
        return Permutation(images)


def alternating(n: int) -> PermGroup:
    """Alt(n) natural: (0 1 2) plus an n-cycle (n odd) or (n-1)-cycle."""
    if n < 3:
        raise ValueError(f"alternating needs n >= 3, got {n}")
    three = np.arange(n, dtype=np.int64)
    three[[0, 1, 2]] = [1, 2, 0]
    gens = [Permutation(three)]
    if n >= 4:
        cyc = np.arange(n, dtype=np.int64)
        if n % 2 == 1:
            cyc[:] = (cyc + 1) % n  # full n-cycle, even for odd n
        else:
            cyc[1:-1] = np.arange(2, n)  # (n-1)-cycle on 1..n-1, fixing 0
            cyc[-1] = 1
        gens.append(Permutation(cyc))
    return PermGroup(n, gens, label=f"alt({n})")


def symmetric(n: int) -> PermGroup:
    if n < 2:
        raise ValueError(f"symmetric needs n >= 2, got {n}")
    swap = np.arange(n, dtype=np.int64)
    swap[[0, 1]] = [1, 0]
    gens = [] if n == 2 else list(alternating(n).generators)
    gens.append(Permutation(swap))
    return PermGroup(n, gens, label=f"sym({n})")


def _induced_action(n: int, gens, labels, apply_label, name: str) -> PermGroup:
    index = {lab: i for i, lab in enumerate(labels)}
    out = []
    for g in gens:
        images = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            images[i] = index[apply_label(g, lab)]
        out.append(Permutation(images))
    return PermGroup(len(labels), out, label=name)


def ksubsets_action(n: int, k: int) -> PermGroup:
    """Alt(n) on the k-element subsets of {0..n-1}, subsets ordered
    lexicographically. k is restricted to 1 <= k < n/2."""
    if not 1 <= k or not 2 * k < n:
        raise ValueError(f"need 1 <= k < n/2, got k={k}, n={n}")
    labels = list(combinations(range(n), k))
    return _induced_action(
        n,
        alternating(n).generators,
        labels,
        lambda g, s: tuple(sorted(g(x) for x in s)),
        f"ksubsets({n},{k})",
    )


def _partitions_into_blocks(points: tuple[int, ...], k: int):
    """All partitions of the point tuple into blocks of size k, each emitted
    as a sorted tuple of sorted tuples."""
    if not points:
        yield ()
        return
    first = points[0]
    rest = points[1:]
    for partners in combinations(rest, k - 1):
        block = (first,) + partners
        remaining = tuple(x for x in rest if x not in partners)
        for sub in _partitions_into_blocks(remaining, k):
            yield (block,) + sub


def partition_action(n: int, k: int, degree_cap: int = PARTITION_DEGREE_CAP) -> PermGroup:
    """Alt(n) on the partitions of {0..n-1} into n/k blocks of size k.
    Partition labels are sorted block tuples, ordered lexicographically."""
    if n % k != 0 or not 1 < k < n:
        raise ValueError(f"need k | n and 1 < k < n, got k={k}, n={n}")
    degree = factorial(n) // (factorial(k) ** (n // k) * factorial(n // k))
    if degree > degree_cap:
        raise ValueError(f"partition degree {degree} exceeds cap {degree_cap}")
    labels = sorted(_partitions_into_blocks(tuple(range(n)), k))
    assert len(labels) == degree

    def act(g, part):
        return tuple(sorted(tuple(sorted(g(x) for x in block)) for block in part))

    return _induced_action(
        n, alternating(n).generators, labels, act, f"partitions({n},{k})"
    )


def _primitive_root(p: int) -> int:
    radicals = prime_factors(p - 1)
    for b in range(2, p):
        if all(pow(b, (p - 1) // r, p) != 1 for r in radicals):
            return b
    raise AssertionError("no primitive root found")  # impossible for prime p


def agl(d: int, p: int, degree_cap: int = AGL_DEGREE_CAP) -> PermGroup:
    """AGL(d,p) on the p^d vectors over GF(p), a vector encoded as the
    little-endian base-p value of its coordinates. Generators: translations
    by the unit vectors, the elementary transvections, and diag(beta,1,..,1)
    for beta the smallest primitive root mod p."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degree = p**d
    if degree > degree_cap:
        raise ValueError(f"degree {degree} exceeds cap {degree_cap}")

    vectors = list(product(range(p), repeat=d))  # tuple (v0,..,v_{d-1}), v0 least significant
    encode = {v: sum(c * p**i for i, c in enumerate(v)) for v in vectors}

    def perm_from(fn) -> Permutation:
        images = np.empty(degree, dtype=np.int64)
        for v, i in encode.items():
            images[i] = encode[fn(v)]
        return Permutation(images)

    gens = []
    for axis in range(d):
        gens.append(
            perm_from(
                lambda v, a=axis: tuple(
                    (c + 1) % p if i == a else c for i, c in enumerate(v)
                )
            )
        )
    for i_src in range(d):
        for j_dst in range(d):
            if i_src == j_dst:
                continue
            gens.append(
                perm_from(
                    lambda v, i=i_src, j=j_dst: tuple(
                        (c + v[i]) % p if idx == j else c for idx, c in enumerate(v)
                    )
                )
            )
    if p > 2:
        beta = _primitive_root(p)
        gens.append(
            perm_from(lambda v: ((v[0] * beta) % p,) + v[1:])
        )
    return PermGroup(degree, gens, label=f"agl({d},{p})")


def psl2(q: int) -> PermGroup:
    """PSL(2,q) on the projective line, degree q+1, for prime powers
    4 <= q <= 1024. Generated by the upper and lower unipotent matrices
    with entry beta^i, 0 <= i < f; the powers of a primitive element span
    the field over its prime subfield, so these generate the full group."""
    if q < 4:
        raise ValueError(f"need q >= 4, got {q}")
    field = FiniteField(q)  # also enforces the 1024 bound and prime-power test
    line = ProjectiveLine(field)
    beta = field.primitive_element
    gens = []
    t = 1
    for _ in range(field.f):
        gens.append(line.mobius_perm(((1, t), (0, 1))))
        gens.append(line.mobius_perm(((1, 0), (t, 1))))
        t = field.mul(t, beta)
    return PermGroup(line.size, gens, label=f"psl2({q})")


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n on n points: rotation plus the
    reflection fixing point 0."""
    if n < 3:
        raise ValueError(f"dihedral needs n >= 3, got {n}")
    rot = Permutation(np.roll(np.arange(n, dtype=np.int64), -1))
    refl = Permutation((-np.arange(n, dtype=np.int64)) % n)
    return PermGroup(n, [rot, refl], label=f"dihedral({n})")


def cyclic(n: int) -> PermGroup:
    if n < 2:
        raise ValueError(f"cyclic needs n >= 2, got {n}")
    rot = Permutation(np.roll(np.arange(n, dtype=np.int64), -1))
    return PermGroup(n, [rot], label=f"cyclic({n})")


def alternating_order(n: int) -> int:
    return factorial(n) // 2


def agl_order(d: int, p: int) -> int:
    pd = p**d
    out = pd
    for i in range(d):
        out *= pd - p**i
    return out


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)
