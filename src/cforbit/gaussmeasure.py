"""Closed forms for the invariant measure of the Gauss map.

Density 1/((1+s) ln 2) on [0,1]; interval masses, single-digit
probabilities, and the interval of reals whose expansion starts with a
given word. Reference side of every convergence test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .cfe import CfeWord, convergents

Scalar = Union[int, float, Fraction]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Interval:
    a: Scalar
    b: Scalar

    def __post_init__(self) -> None:
        if not (0 <= self.a <= self.b <= 1):
            raise ValueError(f"need 0 <= a <= b <= 1, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return float(self.b) - float(self.a)


def gauss_density(s: float) -> float:
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    return 1.0 / ((1.0 + s) * LN2)


def measure_interval(i: Interval) -> float:
    """log2((1+b)/(1+a)), the ratio rounded once for int and Fraction ends.

    Float ends divide in floats, and so would a Fraction end with a float
    end; no caller builds that mix (cylinder_interval returns Fractions).
    """
    return math.log2((1 + i.b) / (1 + i.a))


def gauss_cdf(x: float) -> float:
    """Mass of [0, x]."""
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    return math.log2(1.0 + x)


def digit_probability(k: int) -> float:
    """Mass of {first digit = k}: log2(1 + 1/(k(k+2)))."""
    if k < 1:
        raise ValueError("digit must be >= 1")
    return math.log2(1 + Fraction(1, k * (k + 2)))


def cylinder_interval(w: CfeWord) -> Interval:
    """Interval of reals whose canonical expansion starts with w.

    Endpoints are the final convergent p_n/q_n and the mediant
    (p_n+p_{n-1})/(q_n+q_{n-1}); which is the left end flips with the
    parity of len(w).
    """
    conv = convergents(w)
    pn, qn = conv.pairs[-1]
    pn1, qn1 = conv.pairs[-2]
    end1 = Fraction(pn, qn)
    end2 = Fraction(pn + pn1, qn + qn1)
    lo, hi = (end1, end2) if end1 <= end2 else (end2, end1)
    return Interval(lo, hi)
