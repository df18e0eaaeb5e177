"""The trial-division helpers against a brute-force divisor scan."""
import pytest
from hypothesis import given, settings, strategies as st

import subdeg
from subdeg import lattice
from subdeg.numtheory import is_prime, prime_factors


def _brute_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10_000))
def test_matches_divisor_scan(n):
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    assert prime_factors(n) == tuple(d for d in divisors if _brute_is_prime(d))
    assert is_prime(n) == _brute_is_prime(n)


def test_small_values():
    assert prime_factors(1) == ()
    assert prime_factors(2) == (2,)
    assert prime_factors(720) == (2, 3, 5)
    assert [n for n in range(-3, 12) if is_prime(n)] == [2, 3, 5, 7, 11]


def test_public_alias_is_the_same_function():
    assert subdeg.distinct_prime_factors is lattice.distinct_prime_factors is prime_factors


@pytest.mark.parametrize("n", [0, -1, -12])
def test_prime_factors_rejects_below_one(n):
    with pytest.raises(ValueError, match="positive"):
        prime_factors(n)
