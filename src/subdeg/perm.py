"""Permutations as image sequences, with cycle-notation parsing and formatting.

Images are bytes up to degree 255 and a read-only int64 numpy array above,
so numpy is imported only for the larger degrees. Code that multiplies many
images, such as the stabilizer chain, does so through the kernel for their
degree (`_kernel`), which never tests the form. Points are 0-based
internally. Cycle notation, the external format, is 1-based. Composition
reads left to right: compose(a, b) applies a first, so
compose(a, b)(x) == b(a(x)).
"""
from __future__ import annotations

import re
from functools import cache
from math import lcm
from operator import getitem, index
from typing import Callable, NamedTuple

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
        return _raw(self._img) == _identity_raw(len(self._img))

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


def _inv(x):
    """The image of the inverse."""
    n = len(x)
    if isinstance(x, bytes):
        return bytes.maketrans(x, _identity(n))[:n]
    inv = x.copy()
    inv[x] = _identity(n)
    return inv


class _Kernel(NamedTuple):
    """Products of stored images for code that multiplies many of them, such
    as the stabilizer chain in groups: one kernel per image form, so a call
    dispatches on nothing and builds no Permutation. A permutation enters
    `then` on the right as its table: a byte image followed by _PAD[n], which
    `bytes.translate` reads as is, or an int64 array, its own table. The
    product of two tables is again a table; an image followed by a table is
    an image. An array these return may be writable; _wrap freezes it."""

    then: Callable  # then(x, t): x followed by the permutation whose table is t
    table: Callable  # table(y): the table of the image y
    raw: Callable  # raw(x): x as bytes, for equality and hashing
    at: Callable  # at(x, p): the image of the point p, an int


@cache
def _kernel(degree: int) -> _Kernel:
    """The kernel for images of this degree."""
    if degree < 256:
        pad = _PAD[degree]
        return _Kernel(bytes.translate, lambda y: y + pad, bytes, getitem)
    import numpy as np

    return _Kernel(lambda x, t: t[x], lambda y: y, np.ndarray.tobytes, np.ndarray.item)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product ab under the left-to-right convention: x^(ab) = (x^a)^b."""
    x, y = a._img, b._img
    if len(x) != len(y):
        raise ValueError(f"degree mismatch: {len(x)} vs {len(y)}")
    return _wrap(x.translate(y + _PAD[len(y)]) if isinstance(x, bytes) else y[x])


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


# the whole grammar of `parse_cycles`, as _TOKEN reads it: "()" alone, or
# cycles of ASCII integers, with Unicode whitespace between tokens
_CYCLES = re.compile(r"\s*(?:\(\s*\)\s*|(?:\(\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*\)\s*)*)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation into a permutation of the given degree.

    Grammar: optional whitespace between tokens; each cycle is
    "(" int ("," int)* ")". The empty string and "()" denote the identity.
    Repeated points and points outside 1..degree are errors.

    One regex match checks the whole text against the grammar, and
    `_read_cycles` reads the points. Text that fails either goes to the
    token scanner (`_first_error`), whose only job is to find the first
    error, with its line and column.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    images = _read_cycles(text, degree) if _CYCLES.fullmatch(text) else None
    if images is None:
        raise _first_error(text, degree)
    return _wrap(_store(images))


def _read_cycles(text: str, degree: int) -> list[int] | None:
    """The 0-based images of text that matches the grammar, or None when a
    point is out of range or repeated. `split` and `int` read the points,
    and `min`, `max` and `set` check them. A digit run longer than the
    degree's digits is read without its leading zeros, and one still longer
    is out of range, which int() need not convert."""
    body = "".join(text.split())  # str.split's whitespace is the grammar's \s
    if body in ("", "()"):
        return list(range(degree))
    inner = body[1:-1]
    digits = inner.replace(")(", ",").split(",")
    width = len(str(degree))
    if max(map(len, digits)) > width:
        digits = [s.lstrip("0") or "0" for s in digits]
        if max(map(len, digits)) > width:
            return None
    points = list(map(int, digits))
    if min(points) < 1 or max(points) > degree or len(set(points)) != len(points):
        return None
    # each point goes to the next, and each cycle's last to its first
    succ = points[1:] + points[:1]
    end = 0
    for c in inner.split(")("):
        start, end = end, end + c.count(",") + 1
        succ[end - 1] = points[start]
    images = list(range(-1, degree))  # indexed by 1-based point, 0-based images
    for a, b in zip(points, succ):
        images[a] = b - 1
    del images[0]
    return images


def _first_error(text: str, degree: int) -> CycleParseError:
    """The first error in text that `parse_cycles` rejects, found by reading
    it one token at a time."""
    used: set[int] = set()
    width = len(str(degree))
    tokens = _TOKEN.finditer(text)
    m = next(tokens)
    first_cycle = True
    while m[1]:
        if m[1] != "(":
            return _expected(text, m, "'('")
        m = next(tokens)
        if first_cycle and m[1] == ")":
            # "()" spells the identity, only as the sole cycle
            m = next(tokens)
            if m[1]:
                return _error(text, m.start(1), "unexpected input after '()'")
            break  # "()" alone, which the grammar accepts
        first_cycle = False
        while True:
            if not (m[1].isascii() and m[1].isdigit()):
                return _expected(text, m, "an integer")
            digits = m[1].lstrip("0") or "0"
            # int() refuses very long digit runs, and one longer than the
            # degree's is out of range anyway
            val = int(digits) if len(digits) <= width else degree + 1
            if val < 1 or val > degree:
                return _error(text, m.end(1), f"point {digits} outside 1..{degree}")
            if val in used:
                return _error(text, m.end(1), f"repeated point {val}")
            used.add(val)
            m = next(tokens)
            if m[1] != ",":
                break
            m = next(tokens)
        if m[1] != ")":
            return _expected(text, m, "')'")
        m = next(tokens)
    raise AssertionError(f"the grammar rejected {text!r}, but the scanner found no error")
