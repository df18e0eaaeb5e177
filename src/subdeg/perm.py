"""Permutations as image sequences, with cycle-notation parsing and formatting.

Images are bytes up to degree 255 and a read-only int64 numpy array above,
so numpy is imported only for the larger degrees. Points are 0-based
internally. Cycle notation, the external format, is 1-based. Composition
reads left to right: compose(a, b) applies a first, so
compose(a, b)(x) == b(a(x)).
"""
from __future__ import annotations

import re
from functools import cache
from math import lcm
from operator import index

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
    """Element of Sym(n) stored as its images img, img[x] = x^p: bytes for
    n <= 255, a read-only int64 numpy array above. The form follows from n
    alone, so equal permutations share it."""

    __slots__ = ("_img",)

    def __init__(self, images):
        try:
            img = [index(x) for x in images]
        except TypeError:
            raise ValueError("permutation images must be a 1-d sequence of integers") from None
        n = len(img)
        if n == 0:
            raise ValueError("permutation needs a non-empty 1-d image sequence")
        if min(img) < 0 or max(img) >= n:
            raise ValueError(f"image out of range for degree {n}")
        if len(set(img)) != n:
            raise ValueError("images do not form a bijection")
        self._img = _store(img)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return _wrap(_identity(degree))

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self):
        """The images as a read-only int64 numpy array, at every degree."""
        img = self._img
        if not isinstance(img, bytes):
            return img
        import numpy as np

        return _frozen(np.frombuffer(img, dtype=np.uint8).astype(np.int64))

    def image_seq(self):
        """The images as an indexable sequence of ints, cheap to read point by
        point: the bytes themselves, or a list above degree 255."""
        img = self._img
        return img if isinstance(img, bytes) else img.tolist()

    def __call__(self, point: int) -> int:
        img = self._img
        if not 0 <= point < len(img):
            raise ValueError(f"point {point} out of range for degree {len(img)}")
        return int(img[point])

    def is_identity(self) -> bool:
        return _is_id(self._img)

    def order(self) -> int:
        return order_of(self)

    def min_moved(self) -> int | None:
        """Smallest moved point, or None for the identity."""
        return next((x for x, y in enumerate(self.image_seq()) if x != y), None)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of length >= 2, each rotated to start at its smallest point,
        sorted by that smallest point."""
        img = self.image_seq()
        seen = bytearray(len(img))
        out = []
        for start in range(len(img)):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = 1
                cyc.append(x)
                x = img[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return len(self._img) == len(other._img) and _raw(self._img) == _raw(other._img)

    def __hash__(self) -> int:
        img = self._img
        return hash(img if isinstance(img, bytes) else img.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def _store(img: list[int]):
    """Stored form of a validated image list: bytes up to degree 255, else a
    read-only int64 array."""
    if len(img) < 256:
        return bytes(img)
    import numpy as np

    return _frozen(np.array(img, dtype=np.int64))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _wrap(img) -> Permutation:
    """Permutation around an image already in its stored form, unchecked;
    an array is frozen in place first."""
    if not isinstance(img, bytes):
        _frozen(img)
    p = object.__new__(Permutation)
    p._img = img
    return p


def _raw(img) -> bytes:
    """A stored image as bytes, for equality and hashing."""
    return img if isinstance(img, bytes) else img.tobytes()


@cache
def _identity(degree: int):
    return _store(list(range(degree)))


@cache
def _identity_raw(degree: int) -> bytes:
    return _raw(_identity(degree))


# _PAD[n] holds the fixed points n..255 that make an image a translate table
_PAD = tuple(bytes(range(n, 256)) for n in range(256))


# Stored images, for code that multiplies many of them, such as the
# stabilizer chain in groups: these take and return bytes or int64 arrays,
# so that only this module tells the two apart, and build no Permutation.
# An array they return may be writable; _wrap freezes it.


def _mul(x, y):
    """x followed by y: the image of compose."""
    if isinstance(x, bytes):
        return x.translate(y + _PAD[len(y)])
    return y[x]


def _inv(x):
    """The image of the inverse."""
    n = len(x)
    if isinstance(x, bytes):
        return bytes.maketrans(x, _identity(n))[:n]
    inv = x.copy()
    inv[x] = _identity(n)
    return inv


def _is_id(x) -> bool:
    return _raw(x) == _identity_raw(len(x))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product ab under the left-to-right convention: x^(ab) = (x^a)^b."""
    x, y = a._img, b._img
    if len(x) != len(y):
        raise ValueError(f"degree mismatch: {len(x)} vs {len(y)}")
    return _wrap(_mul(x, y))


def inverse(p: Permutation) -> Permutation:
    return _wrap(_inv(p._img))


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


# one token: optional whitespace, then an ASCII integer, any other single
# character, or the end of the text (an empty token)
_TOKEN = re.compile(r"\s*([0-9]+|.|\Z)", re.S)


def _error(text: str, pos: int, message: str) -> CycleParseError:
    """Error at offset pos; a newline starts a line, any other character,
    Unicode whitespace too, takes one column."""
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return CycleParseError(f"line {line} column {col}: {message}")


def _expected(text: str, m: re.Match, what: str) -> CycleParseError:
    """Error at token m, which is not `what`; it names the token's first
    character."""
    found = repr(m[1][0]) if m[1] else "end of input"
    return _error(text, m.start(1), f"expected {what}, found {found}")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation into a permutation of the given degree.

    Grammar: optional whitespace between tokens; each cycle is
    "(" int ("," int)* ")". The empty string and "()" denote the identity.
    Repeated points and points outside 1..degree are errors.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    images = list(range(degree))
    used: set[int] = set()
    width = len(str(degree))
    tokens = _TOKEN.finditer(text)
    m = next(tokens)
    first_cycle = True
    while m[1]:
        if m[1] != "(":
            raise _expected(text, m, "'('")
        m = next(tokens)
        if first_cycle and m[1] == ")":
            # "()" spells the identity, only as the sole cycle
            m = next(tokens)
            if m[1]:
                raise _error(text, m.start(1), "unexpected input after '()'")
            break
        first_cycle = False
        cyc: list[int] = []
        while True:
            if not (m[1].isascii() and m[1].isdigit()):
                raise _expected(text, m, "an integer")
            digits = m[1].lstrip("0") or "0"
            # int() refuses very long digit runs, and one longer than the
            # degree's is out of range anyway
            val = int(digits) if len(digits) <= width else degree + 1
            if val < 1 or val > degree:
                raise _error(text, m.end(1), f"point {digits} outside 1..{degree}")
            if val - 1 in used:
                raise _error(text, m.end(1), f"repeated point {val}")
            used.add(val - 1)
            cyc.append(val - 1)
            m = next(tokens)
            if m[1] != ",":
                break
            m = next(tokens)
        if m[1] != ")":
            raise _expected(text, m, "')'")
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
        m = next(tokens)
    return _wrap(_store(images))
