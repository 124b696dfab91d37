"""Unimodular 2D lattices: orbit points, reduction, height, duality,
fundamental-domain mapping, and Haar sampling.

A lattice is the integer row span of a 2x2 basis with |det| = 1. The
orbit of a rational x is t -> span of rows (e^{-t/2}, x e^{t/2}) and
(0, e^{t/2}); it lives near the compact part only for t in [0, 2 ln q].
Height is the reciprocal of the shortest nonzero vector length
(Euclidean norm throughout).
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import dual_residue
from .cfe import ReducedFraction

ExactMatrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

_MAX_REDUCE_IT = 100000  # in practice a handful of steps suffice


class LatticeError(Exception):
    pass


class SymmetryError(LatticeError):
    """Raised when the exact duality identity fails; carries the residual when there is one."""

    def __init__(self, message: str, residual: Optional[ExactMatrix] = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LatticeBasis:
    """Row-major 2x2 basis; optional exact-rational shadow when entries are rational."""

    m: np.ndarray
    exact: Optional[ExactMatrix] = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.m, dtype=np.float64)
        if arr.shape != (2, 2):
            raise ValueError("basis must be 2x2")
        object.__setattr__(self, "m", arr)
        if self.exact is not None:
            ed = self.exact[0][0] * self.exact[1][1] - self.exact[0][1] * self.exact[1][0]
            if abs(ed) != 1:
                raise ValueError(f"exact determinant is {ed}, need +-1")
        elif abs(abs(self.det()) - 1.0) > 1e-10:
            raise ValueError(f"|det| = {abs(self.det())}, need 1 within 1e-10")

    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    @classmethod
    def from_exact(cls, exact: ExactMatrix) -> "LatticeBasis":
        rows = [[float(v) for v in row] for row in exact]
        return cls(np.array(rows), tuple(tuple(Fraction(v) for v in row) for row in exact))


@dataclass(frozen=True)
class OrbitSample:
    t: float
    height: float
    fd_point: tuple[float, float]


def orbit_point(x: ReducedFraction, t: float) -> LatticeBasis:
    """Basis of the lattice spanned by (e^{-t/2}, x e^{t/2}) and (0, e^{t/2})."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    span = 2.0 * math.log(x.q)
    if t < -100.0 or t > span + 100.0:
        warnings.warn(f"t={t} is far outside the lifespan [0, {span:.3f}] of {x}", stacklevel=2)
    e = math.exp(t / 2.0)
    m = np.array([[1.0 / e, (x.p / x.q) * e], [0.0, e]])
    exact = None
    if t == 0.0:
        one = Fraction(1)
        exact = ((one, Fraction(x.p, x.q)), (Fraction(0), one))
    return LatticeBasis(m, exact)


def _reduce_rows_float(m: np.ndarray) -> np.ndarray:
    v1, v2 = m[0].copy(), m[1].copy()
    for _ in range(_MAX_REDUCE_IT):
        if v1 @ v1 > v2 @ v2:
            v1, v2 = v2, v1
        mu = round((v1 @ v2) / (v1 @ v1))
        if mu == 0:
            return np.array([v1, v2])
        v2 = v2 - mu * v1
    raise LatticeError("reduction did not terminate")


def _reduce_rows_exact(e: ExactMatrix) -> ExactMatrix:
    v1, v2 = list(e[0]), list(e[1])

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    for _ in range(_MAX_REDUCE_IT):
        if dot(v1, v1) > dot(v2, v2):
            v1, v2 = v2, v1
        ratio = dot(v1, v2) / dot(v1, v1)
        mu = math.floor(ratio + Fraction(1, 2))
        if mu == 0:
            return (tuple(v1), tuple(v2))
        v2 = [v2[0] - mu * v1[0], v2[1] - mu * v1[1]]
    raise LatticeError("exact reduction did not terminate")


def reduce_basis(B: LatticeBasis) -> LatticeBasis:
    """Same lattice, basis with v1 the shortest nonzero vector and |<v1,v2>| <= |v1|^2/2."""
    if abs(abs(B.det()) - 1.0) > 1e-6:
        raise LatticeError(f"basis is near-singular or far from unimodular: |det|={abs(B.det())}")
    if B.exact is not None:
        er = _reduce_rows_exact(B.exact)
        return LatticeBasis.from_exact(er)
    return LatticeBasis(_reduce_rows_float(B.m))


def height(B: LatticeBasis) -> float:
    """1 / (shortest nonzero vector length).

    For unimodular lattices this is at least (3/4)^(1/4) ~ 0.9306, with
    the hexagonal lattice extremal; it equals sqrt(y) of the
    fundamental-domain point.
    """
    R = reduce_basis(B)
    if R.exact is not None:
        n2 = R.exact[0][0] ** 2 + R.exact[0][1] ** 2
        return 1.0 / math.sqrt(n2)
    return 1.0 / math.sqrt(float(R.m[0] @ R.m[0]))


def dual_point(B: LatticeBasis) -> LatticeBasis:
    """Transpose of the inverse basis: the dual lattice."""
    a, b = B.m[0]
    c, d = B.m[1]
    det = B.det()
    m = np.array([[d, -c], [-b, a]]) / det
    exact = None
    if B.exact is not None:
        (ea, eb), (ec, ed) = B.exact
        edet = ea * ed - eb * ec
        exact = ((ed / edet, -ec / edet), (-eb / edet, ea / edet))
    return LatticeBasis(m, exact)


def verify_symmetry(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact witness gamma in SL2(Z) with gamma * [[1/q, p], [0, q]] = [[1, 0], [-p'/q, 1]].

    p' is the dual residue of p. The identity glues the far end of the
    orbit of p/q to the dual of the orbit start of p'/q. Returns gamma;
    raises SymmetryError with the residual if the identity fails.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    pp = dual_residue(p, q)
    num = 1 + p * pp
    if num % q != 0:
        raise SymmetryError(
            f"(1 + p*p')/q is not an integer for p={p}, q={q}",
            ((Fraction(num, q), Fraction(0)), (Fraction(0), Fraction(0))),
        )
    qp = num // q
    gamma = ((q, -p), (-pp, qp))
    det = q * qp - p * pp
    # Product comparison with denominators cleared by q: q*lhs = ((1, pq), (0, q^2))
    # and q*want = ((q, 0), (-pp, q)), so every entry stays an integer.
    prod = (
        (gamma[0][0], gamma[0][0] * p * q + gamma[0][1] * q * q),
        (gamma[1][0], gamma[1][0] * p * q + gamma[1][1] * q * q),
    )
    want = ((q, 0), (-pp, q))
    if det != 1 or prod != want:  # pragma: no cover
        residual = tuple(
            tuple(Fraction(prod[i][j] - want[i][j], q) for j in range(2))
            for i in range(2)
        )
        raise SymmetryError(f"duality identity failed for p={p}, q={q}", residual)
    return gamma


def shape_point(B: LatticeBasis) -> complex:
    """Upper-half-plane shape v2/v1 of an oriented representative of the lattice."""
    m = B.m if B.det() > 0 else B.m[::-1]
    v1 = complex(m[0, 0], m[0, 1])
    v2 = complex(m[1, 0], m[1, 1])
    z = v2 / v1
    if z.imag <= 0:
        raise LatticeError("degenerate shape")
    return z


def to_fundamental_domain(B: LatticeBasis) -> tuple[float, float, str]:
    """Map the lattice shape into {|x| <= 1/2, x^2 + y^2 >= 1}.

    Returns (x, y, word); the word lists the moves applied ("T{n}" is
    x -> x - n, "S" is z -> -1/z). Boundary ties go to x = -1/2 and the
    left arc. For interior points y equals height(B)^2.
    """
    z = shape_point(reduce_basis(B))
    word = []
    for _ in range(10000):
        n = math.floor(z.real + 0.5)
        if n != 0:
            z -= n
            word.append(f"T{n}")
        r2 = z.real * z.real + z.imag * z.imag
        if r2 < 1.0 - 1e-15:
            z = -1.0 / z
            word.append("S")
            continue
        if r2 <= 1.0 + 1e-15 and z.real > 0:
            z = -1.0 / z
            word.append("S")
        if z.real == 0.5:
            z -= 1
            word.append("T1")
        return z.real, z.imag, " ".join(word)
    raise LatticeError("fundamental-domain reduction did not terminate")


def _swap_rows(m: np.ndarray, a, b, c, d) -> tuple[np.ndarray, ...]:
    """Rows (a, b), (c, d) with the two rows exchanged in the columns where m holds."""
    return np.where(m, c, a), np.where(m, d, b), np.where(m, a, c), np.where(m, b, d)


def _fd_points(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Fundamental-domain points (x, y) of the lattices with rows (a, b), (c, d), one per column.

    The arguments broadcast to one shape and the results come out flat.
    Each column goes through the float operations of a scalar Gauss
    reduction (round half to even) and T/S walk, in the same order, so
    its result does not depend on the batch it runs in. Finished columns
    are dropped by a keep mask after every round.
    """
    a, b, c, d = (np.asarray(v, dtype=np.float64).ravel() for v in np.broadcast_arrays(a, b, c, d))
    size = a.size
    ra, rb, rc, rd, fx, fy = (np.empty(size) for _ in range(6))
    if not size:
        return fx, fy
    col = np.arange(size)
    n1 = a * a + b * b
    n2 = c * c + d * d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_REDUCE_IT):
            swap = n1 > n2
            a, b, c, d = _swap_rows(swap, a, b, c, d)
            n1 = np.minimum(n1, n2)
            mu = np.round((a * c + b * d) / n1)
            if not np.isfinite(mu).all():
                raise LatticeError("basis is degenerate or not finite")
            done = mu == 0
            idx = col[done]
            ra[idx], rb[idx], rc[idx], rd[idx] = a[done], b[done], c[done], d[done]
            keep = ~done
            a, b, c, d, n1, mu, col = (v[keep] for v in (a, b, c, d, n1, mu, col))
            if not col.size:
                break
            c = c - mu * a
            d = d - mu * b
            n2 = c * c + d * d
        else:
            raise LatticeError("reduction did not terminate")  # pragma: no cover
    a, b, c, d = _swap_rows(ra * rd - rb * rc < 0, ra, rb, rc, rd)
    den = a * a + b * b
    x = (c * a + d * b) / den
    y = (d * a - c * b) / den
    col = np.arange(size)
    for _ in range(64):
        x = x - np.floor(x + 0.5)
        r2 = x * x + y * y
        inside = r2 < 1.0 - 1e-15
        out = ~inside
        idx = col[out]
        xo = x[out]
        fx[idx] = np.where((r2[out] <= 1.0 + 1e-15) & (xo > 0), -xo, xo)
        fy[idx] = y[out]
        x, y, r2, col = x[inside], y[inside], r2[inside], col[inside]
        if not col.size:
            break
        x, y = -x / r2, y / r2
    else:
        raise LatticeError("fundamental-domain reduction did not terminate")  # pragma: no cover
    fx[fx == 0.5] = -0.5
    return fx, fy


def fd_point_floats(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Fundamental-domain point of the lattice with rows (a,b), (c,d), through the float kernel.

    Agrees with to_fundamental_domain within float error. Bulk callers
    such as stats.orbit_fd_histogram call the array kernel directly.
    """
    x, y = _fd_points(a, b, c, d)
    return float(x[0]), float(y[0])


def haar_fd_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n shape points (x, y) with density (3/pi) dx dy / y^2 on the fundamental domain.

    Rejection from the strip y > sqrt(3)/2 (proposal y = (sqrt(3)/2)/u with
    u uniform, x uniform in [-1/2, 1/2]); acceptance rate pi/(2 sqrt 3).
    """
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    got = 0
    while got < n:
        k = max(1024, int(1.2 * (n - got)))
        x = rng.uniform(-0.5, 0.5, k)
        y = (math.sqrt(3.0) / 2.0) / rng.uniform(0.0, 1.0, k)
        keep = x * x + y * y >= 1.0
        xs.append(x[keep])
        ys.append(y[keep])
        got += int(keep.sum())
    x = np.concatenate(xs)[:n]
    y = np.concatenate(ys)[:n]
    return x, y


def haar_sample(rng: np.random.Generator) -> LatticeBasis:
    """One Haar-distributed lattice: random fundamental-domain shape, random frame angle."""
    x, y = haar_fd_sample(rng, 1)
    xf, yf = float(x[0]), float(y[0])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    w1 = cmath.rect(1.0 / math.sqrt(yf), theta)
    w2 = complex(xf, yf) * w1
    return LatticeBasis(np.array([[w1.real, w1.imag], [w2.real, w2.imag]]))


def orbit_samples(x: ReducedFraction, dt: float, t_max: Optional[float] = None) -> list[OrbitSample]:
    """Height and fundamental-domain point along the orbit grid t = 0, dt, ..., t_max.

    t_max defaults to the lifespan 2 ln q.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max is None:
        t_max = 2.0 * math.log(x.q)
    out = []
    n = int(math.ceil(t_max / dt))
    for i in range(n + 1):
        t = min(i * dt, t_max)
        B = orbit_point(x, t)
        fx, fy, _ = to_fundamental_domain(B)
        out.append(OrbitSample(t, math.sqrt(fy), (fx, fy)))
    return out
