"""Gauss-map dynamics on rationals, all arithmetic exact.

A reduced fraction p/q in (0,1) reaches 0 after finitely many steps of
s -> {1/s}; the digits collected on the way form the canonical word, which
never ends in 1 unless it is a single digit. Convergents follow the usual
two-term recursion seeded with (1,0) and (0,1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True, order=True, init=False)
class ReducedFraction:
    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        # Checks first, then the fields written straight into the instance
        # dict: the generated frozen __init__ plus __post_init__ cost about
        # 1.6 times as much, and the exact identity checks build millions.
        if not (0 < p < q):
            raise ValueError(f"need 0 < p < q, got {p}/{q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"{p}/{q} is not reduced")
        fields = self.__dict__
        fields["p"] = p
        fields["q"] = q

    def __eq__(self, other: object) -> bool:
        # Written out: the generated == builds two field tuples per call,
        # about twice the cost, and the exact identity checks compare
        # millions. The dataclass still generates __hash__ and the order.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "ReducedFraction":
        return cls(fr.numerator, fr.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def complement(self) -> "ReducedFraction":
        """1 - p/q, again in (0,1)."""
        # gcd(q - p, q) = gcd(p, q) = 1
        return _reduced(self.q - self.p, self.q)

    def __float__(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class CfeWord:
    """Canonical digit word: positive digits, last digit >= 2 when len >= 2."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        d = tuple(map(int, self.digits))
        object.__setattr__(self, "digits", d)
        if len(d) < 1:
            raise ValueError("word must have at least one digit")
        if min(d) < 1:
            raise ValueError("digits must be positive")
        if len(d) >= 2 and d[-1] < 2:
            raise ValueError("canonical word cannot end in 1 (length >= 2)")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


# Trusted constructors: they skip the constructor checks and are only for
# results that satisfy the class invariant by construction; each call site
# states why. The public ReducedFraction(...) and CfeWord(...) keep every check.


def _reduced(p: int, q: int) -> ReducedFraction:
    x = object.__new__(ReducedFraction)
    fields = x.__dict__
    fields["p"] = p
    fields["q"] = q
    return x


def _canonical_word(digits: tuple[int, ...]) -> CfeWord:
    w = object.__new__(CfeWord)
    w.__dict__["digits"] = digits
    return w


@dataclass(frozen=True)
class ConvergentList:
    """Pairs (p_k, q_k), k = 0..n, from the recursion seeded with (1,0), (0,1)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) < 2 or self.pairs[0] != (0, 1):
            raise ValueError("convergent list must start at (0, 1)")
        prev_q = 0
        for k, (p, q) in enumerate(self.pairs):
            if math.gcd(p, q) != 1:
                raise ValueError(f"convergent {p}/{q} not reduced")
            # q_1 = a_1 may tie q_0 = 1; strict growth starts at k = 2.
            if (k == 1 and q < prev_q) or (k >= 2 and q <= prev_q):
                raise ValueError("denominators must increase")
            prev_q = q

    @property
    def final(self) -> tuple[int, int]:
        return self.pairs[-1]


def gauss_map(x: ReducedFraction) -> Optional[ReducedFraction]:
    """{1/x} exactly; None once the orbit hits 0 (unit numerator)."""
    r = x.q % x.p
    if r == 0:
        return None
    # gcd(q mod p, p) = gcd(q, p) = 1
    return _reduced(r, x.p)


def cfe_digits(x: ReducedFraction) -> CfeWord:
    """Digit word of p/q via the Euclidean division chain on (q, p)."""
    a, b = x.q, x.p
    digits = []
    while b:
        d = a // b
        digits.append(d)
        a, b = b, a - d * b
    # Canonical by construction: every quotient is >= 1 since b < a, and the
    # last one is >= 2 since the final division is exact with divisor < dividend.
    return _canonical_word(tuple(digits))


def cfe_len(x: ReducedFraction) -> int:
    """Number of Gauss-map steps until 0; bounded by 2*log2(q)."""
    return len(cfe_digits(x).digits)


def convergents(w: CfeWord) -> ConvergentList:
    pairs = [(0, 1)]
    pk1, qk1 = 1, 0
    pk, qk = 0, 1
    for a in w.digits:
        pk1, pk = pk, a * pk + pk1
        qk1, qk = qk, a * qk + qk1
        pairs.append((pk, qk))
    return ConvergentList(tuple(pairs))


def from_digits(w: CfeWord) -> ReducedFraction:
    """Inverse of cfe_digits; rejects words that do not encode a point of (0,1)."""
    # Fold from the last digit: [0; a_k, ..., a_n] = 1/(a_k + [0; a_k+1, ..., a_n]).
    p, q = 0, 1
    for a in reversed(w.digits):
        p, q = q, a * q + p
    if not (0 < p < q):
        raise ValueError(f"word {list(w.digits)} encodes {p}/{q}, outside (0,1)")
    # each step (p, q) -> (q, a*q + p) has determinant -1, so gcd(p, q) stays 1
    return _reduced(p, q)


@dataclass(frozen=True)
class DigitHistogram:
    """Counts of the digits up to stats.DIGIT_CAP; larger digits pool in overflow."""

    counts: dict[int, int]
    overflow: int

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.overflow


def word_frequency(x: ReducedFraction, w: CfeWord) -> Fraction:
    """Sliding-window occurrences of w in the digit word of x, divided by len(x)."""
    digits = cfe_digits(x).digits
    pat = w.digits
    n, k = len(digits), len(pat)
    hits = sum(1 for i in range(n - k + 1) if digits[i : i + k] == pat)
    return Fraction(hits, n)
