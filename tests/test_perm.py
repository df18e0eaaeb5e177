"""Permutation arithmetic and the cycle-notation grammar."""
from __future__ import annotations

from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subdeg.perm import (
    CycleParseError,
    Permutation,
    _kernel,
    _raw,
    compose,
    format_cycles,
    inverse,
    order_of,
    parse_cycles,
)

from conftest import scan_cycles


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


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError, match="bijection"):
        perm([0, 0, 1])
    with pytest.raises(ValueError, match="out of range"):
        perm([0, 3, 1])
    with pytest.raises(ValueError, match="non-empty"):
        perm([])


@pytest.mark.parametrize("n", [2, 300])
@pytest.mark.parametrize(
    "head", [[1.5, 0], ["1", "0"], [1, 0.0], [np.float64(1), 0]], ids=["float", "str", "float-zero", "np-float"]
)
def test_validation_rejects_non_integer_images(n, head):
    # a float or string entry is an error even where it names a valid point
    with pytest.raises(ValueError):
        Permutation(head + list(range(2, n)))


@pytest.mark.parametrize("n", [2, 300])
def test_validation_accepts_python_and_numpy_ints(n):
    want = [1, 0, *range(2, n)]
    assert Permutation([np.int64(1), np.int32(0), *range(2, n)]) == Permutation(want)
    assert Permutation(np.array(want, dtype=np.int16)).images.tolist() == want


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


# (text, degree, images or the exact error message), recorded from the
# character-at-a-time scanner this parser replaced; every message kind,
# multi-line input, and Unicode whitespace, which moves the column only
PARSE_TABLE = [
    ('', 3, (0, 1, 2)),
    ('  \t ', 3, (0, 1, 2)),
    ('()', 3, (0, 1, 2)),
    (' ( ) ', 3, (0, 1, 2)),
    ('(1,2,3)(4,5)', 6, (1, 2, 0, 4, 3, 5)),
    ('( 1 , 2 , 3 ) ( 4 , 5 )', 6, (1, 2, 0, 4, 3, 5)),
    ('(01,002)', 3, (1, 0, 2)),
    ('(3,1,2)', 3, (1, 2, 0)),
    ('1,2', 4, "line 1 column 1: expected '(', found '1'"),
    ('12,3', 4, "line 1 column 1: expected '(', found '1'"),
    ('x', 4, "line 1 column 1: expected '(', found 'x'"),
    (')', 4, "line 1 column 1: expected '(', found ')'"),
    ('(1,2)3', 4, "line 1 column 6: expected '(', found '3'"),
    ('(1,2) ,', 4, "line 1 column 7: expected '(', found ','"),
    ('(1,2)\x00', 4, "line 1 column 6: expected '(', found '\\x00'"),
    ('(1;2)', 4, "line 1 column 3: expected ')', found ';'"),
    ('(1 2)', 4, "line 1 column 4: expected ')', found '2'"),
    ('(1 23)', 4, "line 1 column 4: expected ')', found '2'"),
    ('(1,2(', 4, "line 1 column 5: expected ')', found '('"),
    ('(1,,2)', 4, "line 1 column 4: expected an integer, found ','"),
    ('(a)', 4, "line 1 column 2: expected an integer, found 'a'"),
    ('(1,-2)', 4, "line 1 column 4: expected an integer, found '-'"),
    ('(1,2)()', 4, "line 1 column 7: expected an integer, found ')'"),
    ('(,1)', 4, "line 1 column 2: expected an integer, found ','"),
    ('(+1)', 4, "line 1 column 2: expected an integer, found '+'"),
    ('(', 4, 'line 1 column 2: expected an integer, found end of input'),
    ('(1', 4, "line 1 column 3: expected ')', found end of input"),
    ('(1,', 4, 'line 1 column 4: expected an integer, found end of input'),
    ('(1,2', 4, "line 1 column 5: expected ')', found end of input"),
    ('(1,2)(', 4, 'line 1 column 7: expected an integer, found end of input'),
    ('(1,2) ( 3 ,', 4, 'line 1 column 12: expected an integer, found end of input'),
    ('(1,5)', 4, 'line 1 column 5: point 5 outside 1..4'),
    ('(0,1)', 4, 'line 1 column 3: point 0 outside 1..4'),
    ('(1,99999999999999999999)', 4, 'line 1 column 24: point 99999999999999999999 outside 1..4'),
    ('(2,00)', 4, 'line 1 column 6: point 0 outside 1..4'),
    ('(1,2)\n(3,10)', 9, 'line 2 column 6: point 10 outside 1..9'),
    ('(1,2)(2,3)', 4, 'line 1 column 8: repeated point 2'),
    ('(1,1)', 4, 'line 1 column 5: repeated point 1'),
    ('(1,2,3,1)', 4, 'line 1 column 9: repeated point 1'),
    ('(1,02)(2,3)', 4, 'line 1 column 9: repeated point 2'),
    ('()(1,2)', 4, "line 1 column 3: unexpected input after '()'"),
    ('() x', 4, "line 1 column 4: unexpected input after '()'"),
    ('( )\n)', 4, "line 2 column 1: unexpected input after '()'"),
    ('()()', 4, "line 1 column 3: unexpected input after '()'"),
    ('(1,2)\n(3,4)', 4, (1, 0, 3, 2)),
    ('(1,2)\n(3,\n4)\n(4,5)', 5, 'line 4 column 3: repeated point 4'),
    ('\n\n(1,\n  x)', 4, "line 4 column 3: expected an integer, found 'x'"),
    ('(1,2)\n\n', 3, (1, 0, 2)),
    ('(1,\n2', 3, "line 2 column 2: expected ')', found end of input"),
    ('\n()\n\n  (1,2)', 3, "line 4 column 3: unexpected input after '()'"),
    ('(1\n,2)\n(3;4)', 4, "line 3 column 3: expected ')', found ';'"),
    ('(1,2)\r\n(3,x)', 4, "line 2 column 4: expected an integer, found 'x'"),
    ('\r\r(1,2)\r(2,3)', 4, 'line 1 column 11: repeated point 2'),
    ('\xa0(1,2)\u2003(3,x)', 4, "line 1 column 11: expected an integer, found 'x'"),
    ('(1,\u20282)\u2029(2,3)', 4, 'line 1 column 10: repeated point 2'),
    ('\u3000(1,\u3000\u30002)', 3, (1, 0, 2)),
    ('(1,2)\x0b\x0c\x1c(5,6)', 4, 'line 1 column 11: point 5 outside 1..4'),
    ('\u2028\n\u2028(', 4, 'line 2 column 3: expected an integer, found end of input'),
    ('(1,2)\u2009\n\u2009()', 4, "line 2 column 3: expected an integer, found ')'"),
    ('\u2003(1,\xa02)\xa0', 2, (1, 0)),
    ('(1,\x852)', 3, (1, 0, 2)),
    ('(1,2)é', 4, "line 1 column 6: expected '(', found 'é'"),
    ('(\u200b1,2)', 4, "line 1 column 2: expected an integer, found '\\u200b'"),
]


@pytest.mark.parametrize("text,degree,expected", PARSE_TABLE)
def test_parse_table(text, degree, expected):
    if isinstance(expected, str):
        with pytest.raises(CycleParseError) as exc:
            parse_cycles(text, degree)
        assert str(exc.value) == expected
    else:
        assert tuple(parse_cycles(text, degree).image_seq()) == expected


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13"], ids=["superscript-2", "arabic-indic-3", "fullwidth-3"])
def test_parse_rejects_non_ascii_digits(digit):
    # str.isdigit accepts all three, and int() rejects the superscript with a
    # bare ValueError but reads the other two as 3
    with pytest.raises(CycleParseError) as exc:
        parse_cycles(f"(1,{digit})", 4)
    assert str(exc.value) == f"line 1 column 4: expected an integer, found {digit!r}"


def test_parse_reads_digit_runs_of_any_length():
    # int() refuses more than 4,300 digits with a bare ValueError, which
    # escaped both a sweep and the CLI's input-error path
    nines = "9" * 5000
    text = f"(1,{nines})"
    with pytest.raises(CycleParseError) as exc:
        parse_cycles(text, 4)
    assert str(exc.value) == f"line 1 column {len(text)}: point {nines} outside 1..4"
    assert parse_cycles("(1," + "0" * 5000 + "2)", 4).image_seq() == bytes([1, 0, 2, 3])
    # a token as long as the degree's digits is compared by value
    assert parse_cycles("(1,0100)", 100).image_seq()[:2] == bytes([99, 1])
    with pytest.raises(CycleParseError, match="point 101 outside 1..100"):
        parse_cycles("(1,00101)", 100)


# whitespace the grammar skips, Unicode included, and tokens it refuses
_SPACES = ["", " ", "  ", "\x1c", "\n", "\t", "\u2003"]
_STRAYS = ["(", ")", ",", "()", "x", "-", "+", "\x00", "\u00b2", "\u0663", "\u200b"]


@st.composite
def cycle_texts(draw):
    """(text, degree): cycles of points, sometimes a repeated or
    out-of-range one, spelled with leading zeros or as digit runs up to
    5,000 long, with "()" alone, before or after them, and stray, missing or
    extra tokens, joined by drawn whitespace."""
    n = draw(st.integers(1, 300))
    points = draw(st.lists(st.integers(1, n), unique=True, max_size=12))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from([0, n + 1, 10 * n, *points[:2]]))
        points.insert(draw(st.integers(0, len(points))), bad)
    cuts = sorted(set(draw(st.lists(st.integers(1, max(len(points) - 1, 1)), max_size=3))))
    cycles = [points[i:j] for i, j in zip([0, *cuts], [*cuts, len(points)]) if points[i:j]]

    def spell(v: int) -> str:
        style = draw(st.integers(0, 29))
        if style == 0:
            return "0" * draw(st.integers(1, 5000)) + str(v)
        if style == 1:
            return str(v) + "9" * draw(st.integers(1, 5000))
        if style == 2:
            return "0" * draw(st.integers(1, 3)) + str(v)
        return str(v)

    tokens = []
    for cyc in cycles:
        tokens.append("(")
        for i, v in enumerate(cyc):
            tokens += [","] * (i > 0) + [spell(v)]
        tokens.append(")")
    where = draw(st.integers(0, 7))  # mostly no "()"; else it first, last, or both
    tokens = ["(", ")"] * (where in (5, 7)) + tokens + ["(", ")"] * (where in (6, 7))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        op = draw(st.integers(0, 2))
        at = draw(st.integers(0, len(tokens)))
        if op == 0:
            tokens.insert(at, draw(st.sampled_from(_STRAYS)))
        elif tokens:
            at = min(at, len(tokens) - 1)
            if op == 1:
                del tokens[at]
            else:
                tokens.insert(at, tokens[at])
    spaces = draw(st.lists(st.sampled_from(_SPACES), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(sp + tok for sp, tok in zip(spaces, tokens)) + spaces[-1]
    return text, n


@settings(max_examples=400, deadline=None)
@given(cycle_texts())
def test_parse_matches_the_token_scanner(case):
    # the grammar match must accept exactly what the scanner accepts, with
    # the same images, and hand everything else to the scanner, whose first
    # error is the message
    text, n = case
    try:
        want = scan_cycles(text, n)
    except CycleParseError as e:
        with pytest.raises(CycleParseError) as exc:
            parse_cycles(text, n)
        assert str(exc.value) == str(e)
    else:
        assert tuple(parse_cycles(text, n).image_seq()) == want


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
    acc = Permutation.identity(p.degree)
    for _ in range(order_of(p)):
        acc = compose(acc, p)
    assert acc.is_identity()


def test_images_are_read_only():
    p = parse_cycles("(1,2)", 3)
    with pytest.raises(ValueError):
        p.images[0] = 2


@pytest.mark.parametrize("n", [3, 300])
def test_call_rejects_points_outside_the_degree(n):
    # a negative point once wrapped around to the end of the images
    p = Permutation([*range(1, n), 0])
    assert p(n - 1) == 0
    for point in (-1, -n, n):
        with pytest.raises(ValueError, match=f"^point {point} out of range for degree {n}$"):
            p(point)


BOUNDARY_DEGREES = [1, 2, 254, 255, 256, 257, 300]


def oracle_cycles(img: list[int]) -> list[tuple[int, ...]]:
    """Cycles of a plain image list, each from its smallest point, sorted."""
    out, seen = [], set()
    for start in range(len(img)):
        if start in seen or img[start] == start:
            continue
        cyc = [start]
        while img[cyc[-1]] != start:
            cyc.append(img[cyc[-1]])
        seen.update(cyc)
        out.append(tuple(cyc))
    return out


@st.composite
def boundary_pairs(draw):
    n = draw(st.sampled_from(BOUNDARY_DEGREES))
    a = list(draw(st.permutations(range(n))))
    b = draw(st.one_of(st.just(a), st.just(list(range(n))), st.permutations(range(n)).map(list)))
    return a, b


@settings(max_examples=80, deadline=None)
@given(boundary_pairs())
def test_both_forms_match_a_list_oracle(pair):
    # degrees on both sides of 255, where the stored form changes
    a, b = pair
    n = len(a)
    p, q = Permutation(a), Permutation(b)
    assert compose(p, q).images.tolist() == [b[a[x]] for x in range(n)]
    inv = [0] * n
    for x, y in enumerate(a):
        inv[y] = x
    assert inverse(p).images.tolist() == inv
    assert (p == q) == (a == b)
    if a == b:
        assert hash(p) == hash(q)
    assert p.is_identity() == (a == list(range(n)))
    cycs = oracle_cycles(a)
    assert p.cycles() == cycs
    assert format_cycles(p) == ("".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs) or "()")
    assert p.min_moved() == next((x for x in range(n) if a[x] != x), None)
    assert order_of(p) == lcm(1, *map(len, cycs))
    img = p.images
    assert img.dtype == np.int64 and img.tolist() == a
    with pytest.raises(ValueError):
        img[0] = 0
    assert [p(x) for x in range(n)] == a


@pytest.mark.parametrize("n", BOUNDARY_DEGREES)
def test_every_input_form_gives_one_value(n):
    img = [*range(1, n), 0]
    made = [
        Permutation(img),
        Permutation(tuple(img)),
        Permutation(np.array(img, dtype=np.int64)),
        parse_cycles("(" + ",".join(str(x + 1) for x in range(n)) + ")" if n > 1 else "", n),
    ]
    assert all(m == made[0] for m in made)
    assert len({hash(m) for m in made}) == 1
    assert len(set(made)) == 1


@settings(max_examples=80, deadline=None)
@given(boundary_pairs(), st.data())
def test_kernel_matches_the_permutation_operations(pair, data):
    # the stabilizer chain's kernel against compose, _raw and __call__, on
    # both sides of 255; then(x, table(y)) is an image of degree n, and a
    # table multiplied by a table is again a table
    a, b = pair
    n = len(a)
    p, q = Permutation(a), Permutation(b)
    k = _kernel(n)
    assert _kernel(n) is k
    x, y = p._img, q._img
    xy = k.then(x, k.table(y))
    assert len(xy) == n
    assert Permutation(list(xy)) == compose(p, q)
    assert k.raw(xy) == _raw(compose(p, q)._img)
    assert k.raw(x) == _raw(x)
    point = data.draw(st.integers(0, n - 1))
    assert k.at(x, point) == p(point) and type(k.at(x, point)) is int
    assert k.raw(k.then(k.table(x), k.table(y))) == k.raw(k.table(xy))


def test_argument_errors_and_foreign_equality():
    with pytest.raises(ValueError, match="degree must be at least 1"):
        Permutation.identity(0)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        parse_cycles("()", 0)
    assert Permutation.identity(3) != (0, 1, 2)
