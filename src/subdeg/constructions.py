"""Deterministic constructors for the standard group families, with just
enough finite-field arithmetic to build PSL(2,q) and AGL(d,p).

Every constructor is pure: identical parameters give identical generator
lists, down to the field modulus and primitive element. Orders are checked
against the closed-form formulas in the test suite; each constructor also
hands its formula to Schreier-Sims as an upper bound on the order. The
generator images a constructor computes are stored as they are (perm._store),
not checked again by Permutation; the test suite checks that every built-in
generator is a bijection of its degree.
"""
from __future__ import annotations

from itertools import combinations, product
from math import factorial, gcd

from . import groups
from .groups import CapExceeded, PermGroup
from .numtheory import is_prime, prime_factors
from .perm import Permutation, _store, _wrap

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
AGL_DEGREE_CAP = 10_000


class FiniteField:
    """GF(p^f) for q = p^f <= 1024, elements encoded as integers 0..q-1.

    The integer encoding is the little-endian base-p digit vector of the
    polynomial coefficients, so 0..p-1 are the prime-field constants. The
    modulus is the lexicographically smallest monic irreducible of degree f
    (coefficients compared low-degree-first); this need not be the Conway
    polynomial. The stored primitive element is the smallest element, in
    encoding order, of multiplicative order q-1.

    Addition goes through the Zech table of "1 + x": with a = beta^i and
    b = beta^j, a + b = a(1 + b/a), and 1 + beta^(j-i) is read off the
    table built with the field.
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
        # _zech[k] = log(1 + beta^k), or -1 where 1 + beta^k = 0; adding 1
        # steps the lowest base-p digit of the encoding
        one_plus = [a - a % p + (a + 1) % p for a in self._exp]
        self._zech = [self._log[b] if b else -1 for b in one_plus]

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
        """a * b in an extension field, reduced by the rows of _reduce."""
        p, f = self.p, self.f
        da, db = self._decode(a), self._decode(b)
        prod = [0] * (2 * f - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] += ca * cb
        low = prod[:f]
        for c, row in zip(prod[f:], self._reduce):
            if c:
                for j, r in enumerate(row):
                    low[j] += c * r
        return self._encode([c % p for c in low])

    def _build_tables(self):
        """The first beta whose powers cycle through q-1 elements, with
        those powers as the exp table and its inverse as the log table. A
        prime field multiplies integers mod p; an extension field skips the
        constants 1..p-1, whose orders divide p-1 < q-1."""
        q, p, f = self.q, self.p, self.f
        if f == 1:
            beta = _primitive_root(p) if p > 2 else 1
            exp = [1]
            while len(exp) < q - 1:
                exp.append(exp[-1] * beta % p)
        else:
            # _reduce[i] holds the digits of x^(f+i) modulo the modulus
            self._reduce = [self._poly_divmod([0] * (f + i) + [1], self.modulus) for i in range(f - 1)]
            for beta in range(p, q):
                exp = [1]
                acc = beta
                while acc != 1:
                    exp.append(acc)
                    acc = self._mul_poly(acc, beta)
                if len(exp) == q - 1:
                    break
            else:
                raise AssertionError("no primitive element found")  # impossible
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        return exp, log, beta

    # public arithmetic, table-backed

    def add(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return a or b
        m = self.q - 1
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % m]
        return 0 if z < 0 else self._exp[(la + z) % m]

    def neg(self, a: int) -> int:
        """a(p - 1), that is a itself in characteristic 2."""
        return a if self.p == 2 else self.mul(a, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def _affine_logs(self, u: int, v: int) -> list[int]:
        """log(u*x + v) for every x in encoding order, -1 where it is 0: one
        Zech table read per point instead of a mul and an add."""
        log, zech, m = self._log, self._zech, self.q - 1
        lv = log[v] if v else -1
        if u == 0:
            return [lv] * self.q
        lu = log[u]
        steps = [(lu + lx) % m for lx in log[1:]]  # log(u*x) for x = 1..q-1
        if lv < 0:
            return [-1, *steps]
        out = [lv]
        for k in steps:
            z = zech[(lv - k) % m]
            out.append(-1 if z < 0 else (k + z) % m)
        return out


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
        if F.mul(a, d) == F.mul(b, c):
            raise ValueError("matrix is singular")
        exp, m = F._exp, F.q - 1
        images = [
            self.infinity if lden < 0 else 0 if lnum < 0 else exp[(lnum - lden) % m]
            for lnum, lden in zip(F._affine_logs(a, c), F._affine_logs(b, d))
        ]
        images.append(self.infinity if b == 0 else F.mul(a, F.inv(b)))
        return _wrap(_store(images))


def _bounded(G: PermGroup, bound: int) -> PermGroup:
    """G with a bound >= |G|; its chain sifts random elements until it
    reaches the bound (groups.schreier_sims)."""
    G._order_bound = bound
    return G


def alternating(n: int) -> PermGroup:
    """Alt(n) natural: (0 1 2) plus an n-cycle (n odd) or (n-1)-cycle."""
    if n < 3:
        raise ValueError(f"alternating needs n >= 3, got {n}")
    if n > groups.DEGREE_CAP:
        raise CapExceeded("degree", n, groups.DEGREE_CAP)
    gens = [_wrap(_store([1, 2, 0, *range(3, n)]))]
    if n >= 4:
        if n % 2 == 1:
            cyc = [*range(1, n), 0]  # full n-cycle, even for odd n
        else:
            cyc = [0, *range(2, n), 1]  # (n-1)-cycle on 1..n-1, fixing 0
        gens.append(_wrap(_store(cyc)))
    return _bounded(PermGroup(n, gens, label=f"alt({n})"), alternating_order(n))


def symmetric(n: int) -> PermGroup:
    if n < 2:
        raise ValueError(f"symmetric needs n >= 2, got {n}")
    gens = [] if n == 2 else list(alternating(n).generators)  # which checks the degree cap
    gens.append(_wrap(_store([1, 0, *range(2, n)])))
    return _bounded(PermGroup(n, gens, label=f"sym({n})"), factorial(n))


def _capped_count(steps, cap: int) -> int:
    """The product 1 * num/den * .. over the (num, den) steps, each a whole
    number, stopped once it passes cap**2; the steps never shrink it, so a
    stop leaves a lower bound on the count (see CapExceeded)."""
    count = 1
    for num, den in steps:
        count = count * num // den
        if count > cap * cap:
            break
    return count


def _subset_images(img, subsets, index) -> list[int]:
    """The index of each subset's image under a generator's image sequence."""
    return [index[tuple(sorted(map(img.__getitem__, s)))] for s in subsets]


def ksubsets_action(n: int, k: int) -> PermGroup:
    """Alt(n) on the k-element subsets of {0..n-1}, subsets ordered
    lexicographically. k is restricted to 1 <= k < n/2."""
    if not 1 <= k or not 2 * k < n:
        raise ValueError(f"need 1 <= k < n/2, got k={k}, n={n}")
    # C(n,k) = prod (n-k+i)/i over i = 1..k
    degree = _capped_count(((n - k + i, i) for i in range(1, k + 1)), groups.DEGREE_CAP)
    if degree > groups.DEGREE_CAP:
        raise CapExceeded("k-subset degree", degree, groups.DEGREE_CAP)
    labels = list(combinations(range(n), k))
    index = {lab: i for i, lab in enumerate(labels)}
    gens = [_wrap(_store(_subset_images(g.image_seq(), labels, index))) for g in alternating(n).generators]
    return _bounded(PermGroup(degree, gens, label=f"ksubsets({n},{k})"), alternating_order(n))


def _partitions_into_blocks(n: int, k: int, index) -> list[tuple[int, ...]]:
    """Every partition of 0..n-1 into blocks of size k, as the tuple of its
    blocks' indices in `index`, which numbers the k-subsets in lexicographic
    order. A partition grows one block at a time, the next block holding the
    least point left and its partners in combinations order, so the list
    comes out in lexicographic order of the sorted block tuples."""
    parts = [((), tuple(range(n)))]  # (block indices so far, points left)
    for _ in range(n // k):
        parts = [
            (done + (index[(left[0], *partners)],), tuple(x for x in left[1:] if x not in partners))
            for done, left in parts
            for partners in combinations(left[1:], k - 1)
        ]
    return [done for done, _ in parts]


def partition_action(n: int, k: int) -> PermGroup:
    """Alt(n) on the partitions of {0..n-1} into n/k blocks of size k.
    Partition labels are sorted block tuples, ordered lexicographically.
    A generator maps each k-subset once; a partition is the frozenset of
    its blocks' indices among the k-subsets, looked up after mapping each."""
    if not 1 < k < n or n % k != 0:
        raise ValueError(f"need k | n and 1 < k < n, got k={k}, n={n}")
    # the first point's block, C(n-1,k-1) choices, times the partitions of
    # the rest; the last block is forced
    steps = ((n - j * k + i, i) for j in range(1, n // k) for i in range(1, k))
    degree = _capped_count(steps, groups.DEGREE_CAP)
    if degree > groups.DEGREE_CAP:
        raise CapExceeded("partition degree", degree, groups.DEGREE_CAP)
    blocks = list(combinations(range(n), k))
    index = {b: i for i, b in enumerate(blocks)}
    labels = list(map(frozenset, _partitions_into_blocks(n, k, index)))
    assert len(labels) == degree
    label_index = {lab: i for i, lab in enumerate(labels)}
    gens = []
    for g in alternating(n).generators:
        moved = _subset_images(g.image_seq(), blocks, index)
        gens.append(_wrap(_store([label_index[frozenset(map(moved.__getitem__, lab))] for lab in labels])))
    name = f"partitions({n},{k})"
    return _bounded(PermGroup(degree, gens, label=name), alternating_order(n))


def _primitive_root(p: int) -> int:
    radicals = prime_factors(p - 1)
    for b in range(2, p):
        if all(pow(b, (p - 1) // r, p) != 1 for r in radicals):
            return b
    raise AssertionError("no primitive root found")  # impossible for prime p


def agl(d: int, p: int) -> PermGroup:
    """AGL(d,p) on the p^d vectors over GF(p), a vector encoded as the
    little-endian base-p value of its coordinates. Generators: translations
    by the unit vectors, the elementary transvections, and diag(beta,1,..,1)
    for beta the smallest primitive root mod p. The degree is checked
    against the cap before p is tested for primality."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    degree = _capped_count(((p, 1) for _ in range(d)), AGL_DEGREE_CAP)
    if degree > AGL_DEGREE_CAP:
        raise CapExceeded("degree", degree, AGL_DEGREE_CAP)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    points = range(degree)
    weights = [p**i for i in range(d)]
    digits = [[v // w % p for v in points] for w in weights]  # digits[i][v]: coordinate i of v

    def shift(axis: int, new_digits) -> Permutation:
        """v with coordinate `axis` replaced by new_digits[v]."""
        w = weights[axis]
        return _wrap(_store([v + w * (c - old) for v, c, old in zip(points, new_digits, digits[axis])]))

    gens = [shift(a, [(c + 1) % p for c in digits[a]]) for a in range(d)]
    for i in range(d):
        for j in range(d):
            if i != j:  # add coordinate i to coordinate j
                gens.append(shift(j, [(ci + cj) % p for ci, cj in zip(digits[i], digits[j])]))
    if p > 2:
        beta = _primitive_root(p)
        gens.append(shift(0, [c * beta % p for c in digits[0]]))
    return _bounded(PermGroup(degree, gens, label=f"agl({d},{p})"), agl_order(d, p))


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
    return _bounded(PermGroup(line.size, gens, label=f"psl2({q})"), psl2_order(q))


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n on n points: rotation plus the
    reflection fixing point 0."""
    if n < 3:
        raise ValueError(f"dihedral needs n >= 3, got {n}")
    (rot,) = cyclic(n).generators  # which checks the degree cap
    refl = _wrap(_store([-x % n for x in range(n)]))
    return _bounded(PermGroup(n, [rot, refl], label=f"dihedral({n})"), 2 * n)


def cyclic(n: int) -> PermGroup:
    if n < 2:
        raise ValueError(f"cyclic needs n >= 2, got {n}")
    if n > groups.DEGREE_CAP:
        raise CapExceeded("degree", n, groups.DEGREE_CAP)
    rot = _wrap(_store([*range(1, n), 0]))
    return _bounded(PermGroup(n, [rot], label=f"cyclic({n})"), n)


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
