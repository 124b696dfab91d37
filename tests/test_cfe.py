import math
from fractions import Fraction

import pytest
from hypothesis import given

from cforbit.cfe import (
    CfeWord,
    ConvergentList,
    ReducedFraction,
    cfe_digits,
    cfe_len,
    convergents,
    from_digits,
    gauss_map,
    word_frequency,
)
from conftest import reduced_fractions


def test_reduced_fraction_validation():
    with pytest.raises(ValueError):
        ReducedFraction(0, 5)
    with pytest.raises(ValueError):
        ReducedFraction(5, 5)
    with pytest.raises(ValueError):
        ReducedFraction(7, 5)
    with pytest.raises(ValueError):
        ReducedFraction(4, 10)


def test_reduced_fraction_helpers():
    x = ReducedFraction(3, 7)
    assert x.value == Fraction(3, 7)
    assert x.complement() == ReducedFraction(4, 7)
    assert float(x) == 3 / 7
    assert str(x) == "3/7"
    assert ReducedFraction.from_fraction(Fraction(6, 14)) == x


def test_reduced_fraction_equality_hash_and_order():
    x, y, z = ReducedFraction(3, 7), ReducedFraction(3, 7), ReducedFraction(2, 5)
    assert x == y and not x != y
    assert x != z and not x == z
    assert hash(x) == hash(y)
    assert {x: "a", z: "b"}[y] == "a"
    assert z < x and x <= y and x > z and sorted([x, z]) == [z, x]
    # other types are not equal, and order against them is refused
    assert x != (3, 7) and x != Fraction(3, 7) and x != "3/7"
    assert ReducedFraction.__eq__(x, (3, 7)) is NotImplemented
    with pytest.raises(TypeError):
        x < (3, 7)


def test_digit_word_examples():
    assert cfe_digits(ReducedFraction(113, 355)).digits == (3, 7, 16)
    assert cfe_digits(ReducedFraction(1, 2)).digits == (2,)
    assert cfe_digits(ReducedFraction(2, 3)).digits == (1, 2)
    assert cfe_digits(ReducedFraction(5, 8)).digits == (1, 1, 1, 2)


def test_gauss_map_is_the_digit_shift():
    x = ReducedFraction(113, 355)
    assert gauss_map(x) == ReducedFraction(16, 113)
    assert gauss_map(ReducedFraction(16, 113)) == ReducedFraction(1, 16)
    assert gauss_map(ReducedFraction(1, 16)) is None


def test_word_validation():
    with pytest.raises(ValueError):
        CfeWord(())
    with pytest.raises(ValueError):
        CfeWord((3, 0))
    with pytest.raises(ValueError):
        CfeWord((2, 1))  # canonical words never end in 1
    assert CfeWord((1,)).digits == (1,)  # single 1 is a word, just not a rational in (0,1)


def test_from_digits_rejects_the_word_one():
    with pytest.raises(ValueError):
        from_digits(CfeWord((1,)))


def test_convergents_example():
    cl = convergents(CfeWord((3, 7, 16)))
    assert cl.pairs == ((0, 1), (1, 3), (7, 22), (113, 355))
    assert cl.final == (113, 355)


def test_convergents_allow_the_a1_equals_1_tie():
    assert convergents(CfeWord((1, 2))).pairs == ((0, 1), (1, 1), (2, 3))


def test_convergent_list_validation():
    with pytest.raises(ValueError):
        ConvergentList(((0, 1),))
    with pytest.raises(ValueError):
        ConvergentList(((1, 3), (7, 22)))
    with pytest.raises(ValueError):
        ConvergentList(((0, 1), (2, 4)))
    with pytest.raises(ValueError):
        ConvergentList(((0, 1), (1, 3), (1, 2)))  # denominators must grow past k=1


@given(reduced_fractions())
def test_roundtrip_and_canonical_form(x):
    w = cfe_digits(x)
    # cfe_digits and from_digits skip the public checks; these redo them
    assert CfeWord(w.digits) == w
    y = from_digits(w)
    assert ReducedFraction(y.p, y.q) == y
    assert y == x
    assert cfe_len(x) == len(w)
    if len(w) >= 2:
        assert w.digits[-1] >= 2
    assert len(w) <= 2 * math.log2(x.q) + 1e-9


@given(reduced_fractions())
def test_gauss_map_drops_the_first_digit(x):
    y = gauss_map(x)
    d = cfe_digits(x).digits
    if y is None:
        assert len(d) == 1
    else:
        assert ReducedFraction(y.p, y.q) == y
        assert cfe_digits(y).digits == d[1:]
    c = x.complement()
    assert ReducedFraction(c.p, c.q) == c
    assert c.value == 1 - x.value


@given(reduced_fractions(max_q=800))
def test_convergent_recursion_and_gap_bound(x):
    w = cfe_digits(x)
    cl = convergents(w)
    assert len(cl.pairs) == len(w) + 1
    pk2, qk2 = 1, 0
    pk1, qk1 = 0, 1
    for a, (pk, qk) in zip(w.digits, cl.pairs[1:]):
        assert (pk, qk) == (a * pk1 + pk2, a * qk1 + qk2)
        pk2, qk2, pk1, qk1 = pk1, qk1, pk, qk
    val = x.value
    for k in range(len(cl.pairs) - 1):
        pk, qk = cl.pairs[k]
        pk2, qk2 = cl.pairs[k + 1]
        assert Fraction(1, 2 * qk2 * qk) < abs(val - Fraction(pk, qk))


def test_second_iterate_matches_complement_of_upper_half():
    # T(T(x)) = T(1-x) on (1/2, 1); fails on the lower half (1/3 is a witness)
    for q in range(3, 300):
        for p in range(q // 2 + 1, q):
            if math.gcd(p, q) != 1:
                continue
            x = ReducedFraction(p, q)
            lhs = gauss_map(gauss_map(x))
            assert lhs == gauss_map(x.complement())
    y = gauss_map(gauss_map(ReducedFraction(3, 10)))
    assert y != gauss_map(ReducedFraction(7, 10))


def test_word_frequency_is_a_sliding_window_count():
    x = ReducedFraction(113, 355)
    assert word_frequency(x, CfeWord((7,))) == Fraction(1, 3)
    assert word_frequency(x, CfeWord((3, 7))) == Fraction(1, 3)
    assert word_frequency(x, CfeWord((5,))) == 0
    fib = ReducedFraction(5, 8)  # digits 1 1 1 2
    assert word_frequency(fib, CfeWord((1,))) == Fraction(3, 4)
    assert word_frequency(fib, CfeWord((1, 2))) == Fraction(1, 4)
    assert word_frequency(fib, CfeWord((1, 3))) == 0
