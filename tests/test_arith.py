import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cforbit
from cforbit.arith import (
    Modulus,
    coprime_array,
    count_coprime_upto,
    dual_residue,
    euler_phi,
    factorize,
    factorize_with_spf,
    omega,
    smallest_prime_factors,
)


def test_factorize_examples():
    assert factorize(12).prime_factors == ((2, 2), (3, 1))
    assert factorize(1).prime_factors == ()
    assert factorize(97).prime_factors == ((97, 1),)
    assert factorize(720720).primes == (2, 3, 5, 7, 11, 13)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_modulus_validates_factorization():
    with pytest.raises(ValueError):
        Modulus(12, ((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Modulus(6, ((3, 1), (2, 1)))  # not sorted
    with pytest.raises(ValueError):
        Modulus(4, ((2, 0),))


def test_phi_small_values():
    assert [euler_phi(q) for q in (1, 2, 3, 4, 10, 12, 97)] == [1, 1, 2, 2, 4, 4, 96]


def test_omega_small_values():
    assert [omega(q) for q in (1, 2, 12, 30, 720720)] == [0, 1, 2, 3, 6]


def test_phi_equals_coprime_count_up_to_1e4():
    # the sieve agrees with the product formula on the whole range, and with gcd
    for q in range(2, 10**4 + 1):
        assert euler_phi(q) == coprime_array(q).size
    for q in range(2, 301):
        assert [p for p in range(1, q) if math.gcd(p, q) == 1] == coprime_array(q).tolist()


def test_q1_degenerate_conventions():
    assert euler_phi(1) == 1
    assert omega(1) == 0
    with pytest.raises(ValueError):
        coprime_array(1)


def test_count_coprime_examples():
    assert count_coprime_upto(12, Fraction(1, 2)) == 2  # {1, 5}
    assert count_coprime_upto(977, 0) == 0
    assert count_coprime_upto(5, 1) == 4


def test_count_coprime_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError, match="alpha must lie in"):
        count_coprime_upto(10, Fraction(3, 2))
    with pytest.raises(ValueError, match="alpha must lie in"):
        count_coprime_upto(10, -0.25)
    with pytest.raises(ValueError, match="alpha must lie in"):
        count_coprime_upto(10, 2)


def test_count_coprime_takes_int_float_and_fraction_alike():
    # q = 30: the residues up to 15 coprime to 30 are 1, 7, 11, 13
    for alpha in (0.5, Fraction(1, 2), np.float64(0.5)):
        assert count_coprime_upto(30, alpha) == 4
    assert count_coprime_upto(30, 1) == count_coprime_upto(30, 1.0) == euler_phi(30)
    assert count_coprime_upto(30, Fraction(14, 15)) == 7  # 29 excluded
    assert count_coprime_upto(30, np.int64(0)) == 0


@given(st.integers(min_value=2, max_value=600), st.integers(min_value=0, max_value=16))
def test_count_coprime_matches_enumeration(q, k):
    alpha = Fraction(k, 16)
    want = sum(1 for l in range(1, math.floor(alpha * q) + 1) if math.gcd(l, q) == 1)
    assert count_coprime_upto(q, alpha) == want


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=0, max_value=16))
def test_count_coprime_within_2_to_omega_of_linear(q, k):
    alpha = Fraction(k, 16)
    m = factorize(q)
    err = abs(count_coprime_upto(m, alpha) - alpha * euler_phi(m))
    assert err <= 2 ** omega(m)


def test_dual_residue_examples():
    assert dual_residue(2, 5) == 2  # 2*2 = 4 = -1 (mod 5)
    assert dual_residue(1, 7) == 6
    assert dual_residue(3, 10) == 3  # 3*3 = 9 = -1 (mod 10)
    for q in (5, 7, 10, 720720):
        for p in (1, q - 1, 17):
            assert dual_residue(p, factorize(q)) == dual_residue(p, q)


@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=1, max_value=5000))
def test_dual_residue_is_an_involution(q, p):
    p %= q
    if p == 0 or math.gcd(p, q) != 1:
        p = 1
    pp = dual_residue(p, q)
    assert 1 <= pp < q
    assert (p * pp + 1) % q == 0
    assert dual_residue(pp, q) == p


def test_dual_residue_rejects_bad_input():
    with pytest.raises(ValueError):
        dual_residue(2, 4)
    with pytest.raises(ValueError):
        dual_residue(3, 1)
    with pytest.raises(ValueError):
        dual_residue(2, factorize(4))
    with pytest.raises(ValueError):
        dual_residue(3, factorize(1))


def test_spf_sieve_agrees_with_trial_division():
    spf = smallest_prime_factors(2000)
    assert spf[0] == 0 and spf[1] == 0
    for q in range(2, 2001):
        assert factorize_with_spf(q, spf) == factorize(q)


def test_coprime_array_dtype_and_order():
    arr = coprime_array(360360)
    assert arr.dtype == np.int64
    assert arr[0] == 1 and arr[-1] == 360359
    assert np.all(np.diff(arr) > 0)


def test_only_arith_runs_a_euclid_divmod():
    # one Euclid kernel (arith._euclid_rounds): any other module's divmod call is a second loop
    calls = {}
    for path in sorted(Path(cforbit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # divmod(...) is a Name call, np.divmod(...) an Attribute call
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "divmod":
                calls.setdefault(path.name, []).append(node.lineno)
    assert set(calls) == {"arith.py"}, calls
