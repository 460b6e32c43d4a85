import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootclose.valuation import INFINITY, binom_valuation, check_prime, vp


def test_vp_examples():
    assert vp(5, 50) == 2  # 50 = 2 * 5^2
    assert vp(2, 8) == 3
    assert vp(5, 0) == INFINITY
    assert vp(7, -49) == 2


def test_check_prime_refuses_large_primes_before_trial_division():
    # 65521 is the largest prime below 2^16; trial division of
    # 10^18 + 3, a prime, would take about 5 * 10^8 steps
    assert check_prime(65521) == 65521
    for p in (65537, 10**18 + 3):
        with pytest.raises(ValueError, match="below 2\\^16"):
            check_prime(p)


def test_vp_zero_is_infinite():
    assert math.isinf(vp(3, 0))


def test_binom_valuation_examples():
    assert binom_valuation(5, 2, 5) == 1 == vp(5, math.comb(25, 5))
    for p, m in ((2, 4), (3, 3), (5, 2)):
        assert binom_valuation(p, m, p**m) == 0
        assert binom_valuation(p, m, 1) == m


def test_binom_valuation_range_errors():
    with pytest.raises(ValueError):
        binom_valuation(5, 2, 0)
    with pytest.raises(ValueError):
        binom_valuation(5, 2, 26)
    with pytest.raises(ValueError):
        binom_valuation(4, 2, 1)  # not a prime


def test_binom_valuation_contract_small():
    # the full exhaustive sweep lives in the acceptance suite
    for p in (2, 3, 5):
        for m in range(4):
            for i in range(1, p**m + 1):
                assert binom_valuation(p, m, i) == vp(p, math.comb(p**m, i))


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    a=st.integers(min_value=1, max_value=10**9),
    b=st.integers(min_value=1, max_value=10**9),
)
def test_vp_is_additive_on_products(p, a, b):
    assert vp(p, a * b) == vp(p, a) + vp(p, b)
