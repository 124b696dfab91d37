"""Exact elementary number theory for the sweep machinery.

Everything is integer arithmetic: factorization by trial division, totient
and distinct-prime counts read off the factorization, the block sieve of
coprime residues, the pairing p -> p' with p*p' = -1 (mod q), and the one
vectorized Euclid kernel that the sweeps, the census oracle and the orbit
excursions all run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

Rational = Union[int, float, Fraction]


@dataclass(frozen=True)
class Modulus:
    """A positive integer with its prime factorization attached.

    prime_factors is a sorted tuple of (prime, exponent); empty for q = 1.
    """

    q: int
    prime_factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        prod = 1
        last = 1
        for p, e in self.prime_factors:
            if p <= last or e < 1:
                raise ValueError("prime_factors must be strictly increasing primes with positive exponents")
            last = p
            prod *= p**e
        if prod != self.q:
            raise ValueError(f"prime_factors do not multiply back to q={self.q}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.prime_factors)


def factorize(q: int) -> Modulus:
    """Trial division up to sqrt(q). q = 1 gets the empty factorization."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    n = q
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors.append((p, e))
        d += 6
    if n > 1:
        factors.append((n, 1))
    return Modulus(q, tuple(factors))


def _as_modulus(q: int | Modulus) -> Modulus:
    return q if isinstance(q, Modulus) else factorize(q)


def euler_phi(m: int | Modulus) -> int:
    """phi(q) = q * prod(1 - 1/p) over distinct primes p of q. phi(1) = 1."""
    m = _as_modulus(m)
    phi = m.q
    for p, _ in m.prime_factors:
        phi -= phi // p
    return phi


def omega(m: int | Modulus) -> int:
    """Number of distinct prime factors. omega(1) = 0."""
    return len(_as_modulus(m).prime_factors)


def _coprime_mask(primes: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """The block sieve: mask[i] is True when lo + i is divisible by none of primes.

    Each prime clears its multiples in [lo, hi) with one strided slice, so
    the only array is the hi - lo byte mask itself.
    """
    mask = np.ones(hi - lo, dtype=bool)
    for p in primes:
        mask[-lo % p :: p] = False
    return mask


def coprime_array(m: int | Modulus) -> np.ndarray:
    """All coprime residues in [1, q-1] as an int64 array (q >= 2).

    One block sieve over [0, q): 0 is a multiple of every prime, so the
    surviving indices are the residues themselves.
    """
    m = _as_modulus(m)
    if m.q < 2:
        raise ValueError("coprime_array needs q >= 2")
    return np.flatnonzero(_coprime_mask(m.primes, 0, m.q)).astype(np.int64, copy=False)


def _euclid_rounds(
    a: np.ndarray, b: np.ndarray, *carry: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]]:
    """Run the Euclid chains of the columns (a, b), 0 < b < a, one round at a time.

    Each round yields (a, b, d, r, carry) with d, r = divmod(a, b) and
    carry per-column state (weights, indices) the caller may update in
    place. Round k is the k-th digit of b/a. A column ends in the round
    where r hits 0 while b > 0; setting r to 0 ends it early. From the
    next round on it is parked: b = d = r = 0 (the divide-by-zero flag is
    silenced for that divmod only). a, b and carry are compacted to the
    live columns by one mask only once half of them are parked, so the
    copying is O(width) per run; the live columns keep their order, and
    every array keeps its dtype (int32 columns take half the memory).
    """
    live = b.size
    while live:
        with np.errstate(divide="ignore"):
            d, r = np.divmod(a, b)
        yield a, b, d, r, carry
        live = np.count_nonzero(r)  # a column stays live while its r is not 0
        a, b = b, r
        if 2 * live <= b.size:
            keep = b > 0
            a, b = a[keep], b[keep]
            carry = tuple(c[keep] for c in carry)


def count_coprime_upto(m: int | Modulus, alpha: Rational) -> int:
    """Exact #{1 <= l <= alpha*q : gcd(l, q) = 1} by inclusion-exclusion.

    The count differs from alpha*phi(q) by at most 2^omega(q).
    """
    m = _as_modulus(m)
    if isinstance(alpha, float):
        alpha = Fraction(alpha)
    # int and Fraction carry their ratio: integer arithmetic, no Fraction built per call
    n, d = alpha.numerator, alpha.denominator
    if n < 0 or n > d:
        raise ValueError("alpha must lie in [0, 1]")
    kmax = n * m.q // d
    if kmax <= 0:
        return 0
    # signed squarefree divisors of rad(q)
    divs = [(1, 1)]
    for p in m.primes:
        divs += [(d * p, -s) for d, s in divs]
    return sum(s * (kmax // d) for d, s in divs)


def dual_residue(p: int, m: int | Modulus) -> int:
    """The residue p' in [1, q-1] with p*p' = -1 (mod q), q >= 2.

    Applying it twice returns p (mod q). Only q itself is read, so an int
    q is not factorized.
    """
    q = m.q if isinstance(m, Modulus) else m
    if q < 2:
        raise ValueError("dual_residue needs q >= 2")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} is not coprime to q={q}")
    return (-pow(p, -1, q)) % q


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for n in [0, limit]; spf[0] = spf[1] = 0.

    One sieve shared by whole-range sweeps (factoring each q by repeated spf
    division costs O(log q)).
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i::i][spf[i::i] == 0] = i
    return spf


def factorize_with_spf(q: int, spf: np.ndarray) -> Modulus:
    if q < 1:
        raise ValueError("q must be a positive integer")
    n = q
    factors: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    return Modulus(q, tuple(factors))
