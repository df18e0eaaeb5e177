"""Permutation arithmetic and the cycle-notation grammar."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subdeg.perm import (
    Permutation,
    compose,
    format_cycles,
    inverse,
    order_of,
    parse_cycles,
)


def perm(images):
    return Permutation(images)


def test_compose_reads_left_to_right():
    a = parse_cycles("(1,2,3)", 3)
    b = parse_cycles("(1,2)", 3)
    assert format_cycles(compose(a, b)) == "(2,3)"
    assert format_cycles(compose(b, a)) == "(1,3)"
    x = 0
    assert compose(a, b)(x) == b(a(x))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_inverse_and_identity():
    p = parse_cycles("(1,4)(2,3,5)", 6)
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()
    assert inverse(Permutation.identity(4)) == Permutation.identity(4)


def test_order_of():
    assert order_of(Permutation.identity(5)) == 1
    assert order_of(parse_cycles("(1,2)", 2)) == 2
    assert order_of(parse_cycles("(1,2)(3,4,5)", 5)) == 6
    assert order_of(parse_cycles("(1,2,3,4,5,6,7)", 7)) == 7


@pytest.mark.parametrize("n", range(1, 9))
def test_is_identity_on_identity_and_transpositions(n):
    assert Permutation.identity(n).is_identity()
    for i in range(n):
        for j in range(i + 1, n):
            images = list(range(n))
            images[i], images[j] = j, i
            assert not Permutation(images).is_identity()


def test_powers():
    p = parse_cycles("(1,2,3,4)", 4)
    assert (p**0).is_identity()
    assert p**2 == compose(p, p)
    assert p**-1 == inverse(p)
    assert (p**4).is_identity()


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        perm([0, 0, 1])
    with pytest.raises(ValueError):
        perm([0, 3, 1])
    with pytest.raises(ValueError):
        perm([])


def test_parse_identity_forms():
    assert parse_cycles("", 5).is_identity()
    assert parse_cycles("   ", 5).is_identity()
    assert parse_cycles("()", 5).is_identity()
    assert parse_cycles(" ( ) ", 5).is_identity()


def test_parse_basic_cycles():
    p = parse_cycles("(1,2,3)(4,5)", 6)
    assert list(p.images) == [1, 2, 0, 4, 3, 5]
    q = parse_cycles(" ( 1 , 2 , 3 ) ( 4 , 5 ) ", 6)
    assert p == q


def test_parse_is_one_based():
    p = parse_cycles("(1,2)", 2)
    assert list(p.images) == [1, 0]


def test_parse_errors():
    with pytest.raises(ValueError, match="repeated point"):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError, match="outside"):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ValueError, match="outside"):
        parse_cycles("(0,1)", 4)
    with pytest.raises(ValueError, match="column"):
        parse_cycles("(1,2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,,2)", 4)
    with pytest.raises(ValueError):
        parse_cycles("1,2", 4)
    with pytest.raises(ValueError):
        parse_cycles("()(1,2)", 4)


def test_parse_error_reports_position():
    with pytest.raises(ValueError, match=r"line 1 column 3"):
        parse_cycles("(1;2)", 4)


def test_format_canonical_form():
    # cycles sorted by smallest moved point, rotated to lead with it
    p = parse_cycles("(5,4)(3,1,2)", 6)
    assert format_cycles(p) == "(1,2,3)(4,5)"
    assert format_cycles(Permutation.identity(3)) == "()"


def test_format_rotates_cycle_to_smallest():
    # (3,1,2) maps 3->1, 1->2, 2->3: same permutation as (1,2,3)
    p = parse_cycles("(3,1,2)", 3)
    assert format_cycles(p) == "(1,2,3)"


@st.composite
def permutations(draw, max_degree=10):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(range(n)))
    return Permutation(list(images))


@given(permutations())
def test_roundtrip_format_parse(p):
    assert parse_cycles(format_cycles(p), p.degree) == p


@given(permutations())
def test_inverse_is_right_and_left(p):
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()


@given(st.data())
def test_compose_associative(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    ps = [
        Permutation(list(data.draw(st.permutations(range(n)))))
        for _ in range(3)
    ]
    a, b, c = ps
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(permutations())
def test_order_annihilates(p):
    assert (p ** order_of(p)).is_identity()


def test_images_are_read_only():
    p = parse_cycles("(1,2)", 3)
    with pytest.raises(ValueError):
        p.images[0] = 2
