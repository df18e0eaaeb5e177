"""Permutations as image arrays, with cycle-notation parsing and formatting.

Points are 0-based internally. Cycle notation, the external format, is
1-based. Composition reads left to right: compose(a, b) applies a first,
so compose(a, b)(x) == b(a(x)).
"""
from __future__ import annotations

from functools import cache
from math import lcm

import numpy as np

__all__ = [
    "Permutation",
    "CycleParseError",
    "compose",
    "inverse",
    "order_of",
    "parse_cycles",
    "format_cycles",
]


class Permutation:
    """Element of Sym(n) stored as the array of images img, img[x] = x^p."""

    __slots__ = ("images", "_hash")

    def __init__(self, images, *, _trusted: bool = False):
        if _trusted:
            arr = images
        else:
            arr = np.array(images, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("permutation needs a non-empty 1-d image sequence")
            n = int(arr.size)
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError(f"image out of range for degree {n}")
            seen = np.zeros(n, dtype=bool)
            seen[arr] = True
            if not bool(seen.all()):
                raise ValueError("images do not form a bijection")
        arr.setflags(write=False)
        self.images = arr
        self._hash = None

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls(np.arange(degree, dtype=np.int64), _trusted=True)

    @property
    def degree(self) -> int:
        return int(self.images.size)

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def is_identity(self) -> bool:
        return self.images.tobytes() == _identity_bytes(self.images.size)

    def order(self) -> int:
        return order_of(self)

    def min_moved(self) -> int | None:
        """Smallest moved point, or None for the identity."""
        diff = np.flatnonzero(self.images != np.arange(self.degree))
        return int(diff[0]) if diff.size else None

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of length >= 2, each rotated to start at its smallest point,
        sorted by that smallest point."""
        img = self.images
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = int(img[x])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images.size == other.images.size and bool(
            (self.images == other.images).all()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


@cache
def _identity_bytes(degree: int) -> bytes:
    """Image bytes of the identity; every image array is int64."""
    return np.arange(degree, dtype=np.int64).tobytes()


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product ab under the left-to-right convention: x^(ab) = (x^a)^b."""
    if a.images.size != b.images.size:
        raise ValueError(
            f"degree mismatch: {a.images.size} vs {b.images.size}"
        )
    return Permutation(b.images[a.images], _trusted=True)


def inverse(p: Permutation) -> Permutation:
    inv = np.empty(p.images.size, dtype=np.int64)
    inv[p.images] = np.arange(p.images.size, dtype=np.int64)
    return Permutation(inv, _trusted=True)


def order_of(p: Permutation) -> int:
    """Multiplicative order: lcm of the cycle lengths."""
    o = 1
    for cyc in p.cycles():
        o = lcm(o, len(cyc))
    return o


def format_cycles(p: Permutation) -> str:
    """Canonical 1-based cycle string: cycles sorted by smallest moved point,
    each rotated so its smallest point comes first, no whitespace.
    The identity formats as "()"."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycs)


class CycleParseError(ValueError):
    """Cycle-notation text that cannot be parsed; carries line and column."""


class _CycleScanner:
    """Tokenizer for cycle strings that tracks line/column for errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> CycleParseError:
        return CycleParseError(f"line {self.line} column {self.col}: {message}")

    def _advance(self, k: int) -> None:
        for ch in self.text[self.pos : self.pos + k]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += k

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self._advance(1)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            got = self.peek()
            raise self.error(f"expected {ch!r}, found {got!r}" if got else f"expected {ch!r}, found end of input")
        self._advance(1)

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self._advance(1)
        if self.pos == start:
            got = self.peek()
            raise self.error(f"expected an integer, found {got!r}" if got else "expected an integer, found end of input")
        return int(self.text[start : self.pos])


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation into a permutation of the given degree.

    Grammar: optional whitespace between tokens; each cycle is
    "(" int ("," int)* ")". The empty string and "()" denote the identity.
    Repeated points and points outside 1..degree are errors.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    sc = _CycleScanner(text)
    images = np.arange(degree, dtype=np.int64)
    used: set[int] = set()
    sc.skip_ws()
    if sc.peek() is None:
        return Permutation(images, _trusted=True)
    first_cycle = True
    while sc.peek() is not None:
        sc.expect("(")
        sc.skip_ws()
        if first_cycle and sc.peek() == ")":
            # "()" spells the identity, only as the sole cycle
            sc.expect(")")
            sc.skip_ws()
            if sc.peek() is not None:
                raise sc.error("unexpected input after '()'")
            return Permutation(images, _trusted=True)
        first_cycle = False
        cyc: list[int] = []
        while True:
            sc.skip_ws()
            val = sc.integer()
            if val < 1 or val > degree:
                raise sc.error(f"point {val} outside 1..{degree}")
            pt = val - 1
            if pt in used:
                raise sc.error(f"repeated point {val}")
            used.add(pt)
            cyc.append(pt)
            sc.skip_ws()
            if sc.peek() == ",":
                sc.expect(",")
                continue
            sc.expect(")")
            break
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
        sc.skip_ws()
    return Permutation(images, _trusted=True)
