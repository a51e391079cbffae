"""Entrywise-lp-optimal circulant preconditioning of Toeplitz systems.

A banded real symmetric Toeplitz matrix generated by a trigonometric
polynomial is approximated by the circulant that minimizes the entrywise
p-norm of the difference. The minimizer has a per-diagonal closed form (a
weighted power mean of the two Toeplitz offsets each circulant diagonal
touches), computed only for the at most 2w+1 classes a band of halfwidth
w reaches; every other entry of the column is 0. A Toeplitz operator
keeps its diagonals as one dense kernel over offsets -w..w, w its widest
stored offset, and a matrix-vector product is one convolution with it, in
O(n(2w+1)). A circulant keeps one real spectrum, its n//2+1 distinct
eigenvalues, computed when built by a rule that reads only its column:
the cosine sum, in O(n w), for a banded column (a minimizer of a banded
operator), rfft for any other. The solver is a preconditioned conjugate
gradient. At an n with a prime factor above 7 a banded SPD column is
inverted in real space by a banded Cholesky factorization with a
low-rank correction for the wrapped corners. Any other preconditioned
solve of an operator whose widest offset is at most MAX_BAND_HALFWIDTH
runs in the orthonormal basis of the rfft coefficients, where the
circulant is a division by its eigenvalues and T the circulant wrap of
its band less a low-rank correction for the wrapped corners: no FFT runs
in the loop, only on b and at each true-residual check, slow (Bluestein)
ones at such n. A wider operator runs in real space with one rfft/irfft
pair per apply, Bluestein at such n. Nothing here takes a complex FFT.
It stops at the accuracy float64 attains (the true residual, checked
when the recursive one reaches tol or its rounding floor, decides
between converged, a residual replacement and stagnated), with explicit
failure reporting for singular or indefinite preconditioners and
indefinite operators. Symbols, operators and circulants hold real
symmetric data only, the one kind it solves with; each checks its data
once, at construction, and raises ValueError.

The quartic model family f(theta) = alpha + beta(2-2cos) + gamma(2-2cos)^2
gets dedicated support: pentadiagonal coefficients, a closed-form spectrum
for its minimizers, and benchmark drivers that sweep (n, p) grids into
iteration-count tables.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .banach_geometry import PExponent, _number, _positive

__all__ = [
    "PreconditionerSingular",
    "NotPositiveDefinite",
    "NoAdmissibleExponent",
    "UncorrectableSpectrum",
    "ToeplitzSymbol",
    "ToeplitzOperator",
    "CirculantMatrix",
    "SolveReport",
    "SpectrumDiagnostic",
    "BenchmarkConfig",
    "BenchmarkCell",
    "BenchmarkResult",
    "build_toeplitz",
    "lp_matrix_norm",
    "lp_circulant_minimizer",
    "circulant_spectrum",
    "model_spectrum_closed_form",
    "strang_type_correction",
    "toeplitz_matvec",
    "circulant_solve",
    "pcg_solve",
    "select_p_tilde",
    "preconditioned_spectrum_diagnostic",
    "run_benchmark",
    "render_table_csv",
    "render_table_markdown",
]

# Relative residual tolerance for the conjugate gradient solver. Chosen
# tight enough that iteration counts are dominated by preconditioner
# quality rather than by the stopping rule.
DEFAULT_PCG_TOL = 1e-9

# min|eigenvalue| at or below this fraction of max|eigenvalue| counts as
# singular to machine precision.
SINGULARITY_RTOL = 1e-13

DENSE_DIAGNOSTIC_LIMIT = 256


class PreconditionerSingular(ArithmeticError):
    """The circulant has an eigenvalue that is zero to machine precision."""


class NotPositiveDefinite(ValueError):
    """An operation requiring an SPD circulant received an indefinite one."""


class NoAdmissibleExponent(RuntimeError):
    """No exponent on the search grid yields an admissible preconditioner."""


class UncorrectableSpectrum(ValueError):
    """Spectral correction impossible: no eigenvalue is positive."""


def _symmetric_diagonals(diagonals: Mapping[int, float]) -> dict[int, float]:
    """{offset: value} as floats; ValueError naming the offset unless each
    value is a finite real number and t_k == t_(-k) for every stored k."""
    diags = {int(k): _number(f"diagonal at offset {k}", v) for k, v in diagonals.items()}
    for k, v in diags.items():
        if diags.get(-k, 0.0) != v:
            raise ValueError(f"diagonal at offset {k} is {v!r} but at offset {-k} {diags.get(-k, 0.0)!r}: not symmetric")
    return diags


@dataclass(frozen=True, eq=False)
class ToeplitzSymbol:
    """Generating function of a family of Toeplitz matrices.

    It is its Fourier coefficients {offset k: value} and nothing else,
    finite, real and symmetric (t_k = t_(-k)); ValueError otherwise. The
    quartic model family alpha + beta(2-2cos theta) + gamma(2-2cos theta)^2
    (from_model) is banded with t_0 = alpha + 2 beta + 6 gamma,
    t_(+-1) = -beta - 4 gamma, t_(+-2) = gamma.
    """

    coefficients: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _symmetric_diagonals(self.coefficients))

    @classmethod
    def from_model(cls, alpha: float, beta: float, gamma: float) -> "ToeplitzSymbol":
        phi = alpha + 2.0 * beta + 6.0 * gamma
        psi = -beta - 4.0 * gamma
        return cls({0: phi, 1: psi, -1: psi, 2: gamma, -2: gamma})


@dataclass(frozen=True, eq=False)
class ToeplitzOperator:
    """Real symmetric Toeplitz matrix given by its diagonal coefficients.

    Matrix entries are A[i, j] = diagonals[i - j]; missing offsets are zero.
    n must be an integral number >= 1 and is stored as int (8.0 gives 8;
    2.5 and True are a ValueError naming n). The diagonals must be finite
    real numbers with t_k = t_(-k) (ValueError naming the offset
    otherwise); offsets with |k| >= n are dropped.
    Construction stores them once more as a read-only float64 kernel
    h[w + k] = t_k over offsets -w..w, w the widest stored offset (a
    stored 0 counts); toeplitz_matvec convolves with it. A matvec costs
    O(n(2w+1)) whatever the band holds, so one far offset (up to n - 1)
    makes every product O(n^2); the operators this package builds have
    w <= 2. The first pcg_solve in its eigenbasis keeps that on it
    (_Eigenbasis: 2r+1 rows of length n//2+1, r the widest nonzero
    offset) for the solves that follow; one with r > MAX_BAND_HALFWIDTH
    builds none (_coordinates).
    """

    n: int
    diagonals: Mapping[int, float]
    _kernel: np.ndarray = field(init=False, repr=False, compare=False)
    _basis: Optional["_Eigenbasis"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _number("n", self.n, int)
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        diags = {k: v for k, v in _symmetric_diagonals(self.diagonals).items() if abs(k) < n}
        w = max(map(abs, diags), default=0)
        kernel = np.zeros(2 * w + 1)
        for k, v in diags.items():
            kernel[w + k] = v
        kernel.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diagonals", diags)
        object.__setattr__(self, "_kernel", kernel)

    def to_dense(self) -> np.ndarray:
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n))
        out = np.zeros((self.n, self.n))
        for k, v in self.diagonals.items():
            out[idx == k] = v
        return out


def build_toeplitz(symbol: ToeplitzSymbol, n: int) -> ToeplitzOperator:
    """Materialize the n-by-n Toeplitz matrix of a symbol's coefficients.

    n goes through ToeplitzOperator's check: an integral number >= 1, stored
    as int (ValueError naming n otherwise).
    """
    return ToeplitzOperator(n, symbol.coefficients)


@dataclass(frozen=True, eq=False)
class CirculantMatrix:
    """Real symmetric circulant matrix stored by first column and spectrum.

    The first column fixes the matrix, and its length is n. It must be
    1-d of length n >= 1, real, finite and symmetric, c_k == c_(n-k)
    exactly (ValueError otherwise), so the spectrum is real and even. Its
    n//2+1 distinct values lambda_0..lambda_(n//2), computed at
    construction and read-only, are half_eigenvalues, the only spectrum it
    holds (lambda_(n-j) = lambda_j): a banded column (see _band_halfwidth)
    takes the cosine sum lambda_j = c_0 + 2 sum_(k<=w) c_k
    cos(2 pi jk / n) in O(n w), any other rfft(c).real. circulant_spectrum
    gives all n.
    """

    first_column: np.ndarray
    half_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        col = np.asarray(self.first_column)
        if col.ndim != 1 or col.size < 1:
            raise ValueError("first_column must be 1-d of length n >= 1")
        if np.iscomplexobj(col):
            raise ValueError("first_column must be real, got a complex array")
        col = col.astype(float)
        if not np.isfinite(col).all():
            raise ValueError("first_column must be finite")
        if not np.array_equal(col[1:], col[:0:-1]):
            raise ValueError("first_column must be symmetric: c_k == c_(n-k) for every k")
        col.setflags(write=False)
        object.__setattr__(self, "first_column", col)
        half = _half_spectrum(col)
        half.setflags(write=False)
        object.__setattr__(self, "half_eigenvalues", half)

    @property
    def n(self) -> int:
        return self.first_column.size

    @property
    def num_negative_eigenvalues(self) -> int:
        """Negative eigenvalues counted with multiplicity: lambda_j for
        0 < j < n/2 is also lambda_(n-j), and j = 0 and j = n/2 occur once."""
        neg = self.half_eigenvalues < 0.0
        once = int(neg[0]) + int(self.n % 2 == 0 and neg[-1])
        return 2 * int(np.count_nonzero(neg)) - once

    def is_spd(self) -> bool:
        """Every eigenvalue strictly positive."""
        return bool(np.min(self.half_eigenvalues) > 0.0)

    def to_dense(self) -> np.ndarray:
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n)) % self.n
        return self.first_column[idx]


def lp_matrix_norm(X: np.ndarray, p: float) -> float:
    """Entrywise p-norm (sum of |entries|^p)^(1/p); p = 2 is Frobenius.

    p must be a finite number >= 1 (ValueError otherwise), as for PExponent.
    """
    p = PExponent(p).p
    X = np.asarray(X)
    return float(np.sum(np.abs(X) ** p) ** (1.0 / p))


def lp_circulant_minimizer(T: ToeplitzOperator, p: float) -> CirculantMatrix:
    """The circulant closest to T in the entrywise p-norm.

    Circulant diagonal class k overlays Toeplitz offsets k (n-k entries) and
    k-n (k entries), so the objective separates into scalar problems
    (n-k)|t_k - c|^p + k|t_(k-n) - c|^p. For p > 1 the optimum is the
    weighted power mean with weights count^(1/(p-1)); computed in ratio form
    so the exponent never overflows as p approaches 1. For p = 1 the entry
    with the larger count wins outright, ties keeping t_k. p must be a
    finite number >= 1 (ValueError otherwise), as for PExponent. T is
    symmetric, so classes k and n - k solve the same scalar problem with
    the same operations, and the column is symmetric bit for bit. The
    formulas run over the classes T's stored offsets reach, at most 2w + 1
    for a band of halfwidth w, and every other entry of the column is 0.
    """
    p = PExponent(p).p
    n = T.n
    offsets = np.fromiter(T.diagonals, dtype=int, count=len(T.diagonals))  # stored offsets have |j| < n
    values = np.fromiter(T.diagonals.values(), dtype=float, count=len(T.diagonals))
    k, slot = np.unique(offsets % n, return_inverse=True)  # the classes T reaches
    t_pos = np.zeros(k.size)  # t_pos[i] = t_(k[i])
    t_neg = np.zeros(k.size)  # t_neg[i] = t_(k[i]-n)
    t_pos[slot[offsets >= 0]] = values[offsets >= 0]
    t_neg[slot[offsets < 0]] = values[offsets < 0]

    count_pos = (n - k).astype(float)
    count_neg = k.astype(float)
    if p == 1.0:
        vals = np.where(count_neg > count_pos, t_neg, t_pos)
    else:
        major_is_pos = count_pos >= count_neg
        val_major = np.where(major_is_pos, t_pos, t_neg)
        val_minor = np.where(major_is_pos, t_neg, t_pos)
        big = np.maximum(count_pos, count_neg)
        small = np.minimum(count_pos, count_neg)
        with np.errstate(divide="ignore"):
            w = np.where(small > 0, (small / big) ** (1.0 / (p - 1.0)), 0.0)
        vals = (val_major + val_minor * w) / (1.0 + w)
    col = np.zeros(n)  # every class T does not reach is 0
    col[k] = vals
    return CirculantMatrix(col)


def circulant_spectrum(C: CirculantMatrix) -> np.ndarray:
    """All n eigenvalues of a circulant, the DFT of its first column: the
    package's one full-n view of a spectrum. C.half_eigenvalues mirrored
    into lambda_(n-j) = lambda_j, a new writable array."""
    return _mirror(C.half_eigenvalues, C.n)


def model_spectrum_closed_form(C: CirculantMatrix, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Closed-form distinct eigenvalues of the minimizer C of the model
    (alpha, beta, gamma), for j = 0..n//2 as in C.half_eigenvalues.

    lambda_j = f(theta_j) + 2(c_1 - psi)cos(theta_j) + 2(c_2 - gamma)cos(2 theta_j)
    on theta_j = 2 pi j / n: the symbol's values plus the perturbation from
    the two wrapped diagonals. Each parameter must be a finite real number
    (ValueError naming it otherwise), and n >= 5.
    """
    alpha, beta, gamma = _number("alpha", alpha), _number("beta", beta), _number("gamma", gamma)
    if C.n < 5:
        raise ValueError("closed form assumes the five model diagonals are distinct classes")
    psi = -beta - 4.0 * gamma
    theta = 2.0 * np.pi * np.arange(C.n // 2 + 1) / C.n
    c1, c2 = float(C.first_column[1]), float(C.first_column[2])
    f_vals = alpha + beta * (2.0 - 2.0 * np.cos(theta)) + gamma * (2.0 - 2.0 * np.cos(theta)) ** 2
    return f_vals + 2.0 * (c1 - psi) * np.cos(theta) + 2.0 * (c2 - gamma) * np.cos(2.0 * theta)


def strang_type_correction(C: CirculantMatrix) -> CirculantMatrix:
    """Rebuild a circulant with its nonpositive eigenvalues replaced.

    A negative eigenvalue becomes its absolute value and a zero one the
    smallest positive eigenvalue. The result is positive definite; with no
    positive eigenvalue the spectrum is uncorrectable. The new column's
    c_0..c_(n//2) are irfft of the corrected distinct eigenvalues and are
    mirrored into c_(n-k) = c_k, so it is symmetric by construction.
    """
    n, lam = C.n, C.half_eigenvalues
    good = lam > 0.0
    if not np.any(good):
        raise UncorrectableSpectrum("no eigenvalue is positive")
    if np.all(good):
        return C
    col = np.fft.irfft(np.where(lam != 0.0, np.abs(lam), np.min(lam[good])), n)[: n // 2 + 1]
    return CirculantMatrix(_mirror(col, n))


def toeplitz_matvec(T: ToeplitzOperator, x: np.ndarray) -> np.ndarray:
    """Product T @ x.

    One full linear convolution of x with T's kernel over offsets -w..w,
    of which entries w..w+n-1 are the product: (T x)_i = sum_k t_k x_(i-k).
    It costs O(n(2w+1)), w being T's widest stored offset.
    """
    x = np.asarray(x)
    if x.shape != (T.n,):
        raise ValueError(f"operand must have shape ({T.n},), got {x.shape}")
    w = T._kernel.size // 2
    return np.convolve(x, T._kernel)[w : w + T.n]


def _check_nonsingular(lam: np.ndarray) -> None:
    """Raise PreconditionerSingular unless min |lambda| > SINGULARITY_RTOL max |lambda|."""
    absl = np.abs(lam)
    lmax, lmin = float(np.max(absl)), float(np.min(absl))
    if lmax == 0.0 or lmin <= SINGULARITY_RTOL * lmax:
        raise PreconditionerSingular(
            f"circulant is singular to machine precision (min |lambda| = {lmin:.3e}, max = {lmax:.3e})"
        )


def _is_7_smooth(n: int) -> bool:
    """No prime factor above 7: numpy's FFT of length n needs no Bluestein pass."""
    for f in (2, 3, 5, 7):
        while n % f == 0:
            n //= f
    return n == 1


# Widest band the banded paths take: a circulant column's w (cosine-sum
# spectrum; banded apply: 2w set-up solves, a rank-2w correction) and an
# operator's widest nonzero offset r (eigenbasis: 2r+1 rows, O(r^2)
# corners). An FFT's cost does not grow with the band; the model has w = 2.
MAX_BAND_HALFWIDTH = 8


def _band_halfwidth(col: np.ndarray) -> Optional[int]:
    """w when the banded paths apply to a circulant's first column, else None.

    They apply when the (symmetric) column is zero outside offsets -w..w,
    with w <= MAX_BAND_HALFWIDTH and 4w < n: the cosine-sum spectrum at
    every n, the banded Cholesky apply where _real_inverse takes it.
    """
    n = col.size
    nonzero = np.flatnonzero(col[1 : MAX_BAND_HALFWIDTH + 1])
    w = int(nonzero[-1]) + 1 if nonzero.size else 0
    if 4 * w >= n or np.any(col[w + 1 : n - w]):
        return None
    return w


def _cos_table(n: int) -> np.ndarray:
    """cos(2 pi m / n) for m = 0..n//2, each within about an ulp.

    Every argument is folded into [-pi/4, pi/4] by exact integer arithmetic
    (cos x = sin(pi/2 - x) = -cos(pi - x)), where rounding the argument
    moves the result by less than an ulp of 1; cos(2 pi m / n) taken
    directly is off by up to about 2 ulps of 1 near m = n/4.
    """
    m = np.arange(n // 2 + 1)
    a, b = n // 8 + 1, 3 * n // 8 + 1  # 8m <= n for m < a, 8m <= 3n for m < b
    step = np.pi / (2 * n)
    return np.concatenate(
        [np.cos(4 * m[:a] * step), np.sin((n - 4 * m[a:b]) * step), -np.cos((2 * n - 4 * m[b:]) * step)]
    )


def _sin_table(n: int) -> np.ndarray:
    """sin(2 pi m / n) for m = 0..n//2, each within about an ulp, folded as
    _cos_table folds (sin x = cos(pi/2 - x) = sin(pi - x)); m = 0 and
    m = n/2 give 0 exactly."""
    m = np.arange(n // 2 + 1)
    a, b = n // 8 + 1, 3 * n // 8 + 1
    step = np.pi / (2 * n)
    return np.concatenate(
        [np.sin(4 * m[:a] * step), np.cos((n - 4 * m[a:b]) * step), np.sin((2 * n - 4 * m[b:]) * step)]
    )


def _half_spectrum(col: np.ndarray, cos: Optional[np.ndarray] = None) -> np.ndarray:
    """The n//2+1 distinct eigenvalues of the circulant with this symmetric
    first column, by CirculantMatrix's rule: the cosine sum for a banded
    column (_band_halfwidth), rfft(col).real for any other. cos, when
    given, is _mirror(_cos_table(n), n)."""
    w = _band_halfwidth(col)
    return np.fft.rfft(col).real if w is None else _banded_spectrum(col, w, cos)


def _mirror(half: np.ndarray, n: int, sign: float = 1.0) -> np.ndarray:
    """Values v_q, q = 0..n//2, extended to q = 0..n-1 by v_(n-q) = sign v_q:
    a spectrum or column of a symmetric circulant, or a table of
    f(2 pi q / n) that table.take(q, mode="wrap") reads at any integer q."""
    return np.concatenate((half, sign * half[(n + 1) // 2 - 1 : 0 : -1]))


def _banded_spectrum(col: np.ndarray, w: int, cos: Optional[np.ndarray] = None) -> np.ndarray:
    """lambda_j = c_0 + 2 sum_(k=1..w) c_k cos(2 pi jk / n) for j = 0..n//2, in O(n w)."""
    n = col.size
    j = np.arange(n // 2 + 1)
    lam = np.full(j.size, col[0])
    if w:
        cos = _mirror(_cos_table(n), n) if cos is None else cos
        for k in range(1, w + 1):
            lam += 2.0 * col[k] * cos.take(j * k, mode="wrap")
    return lam


def _banded_inverse(col: np.ndarray, w: int) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """r -> C^(-1) r for a banded circulant, None when its band is not SPD.

    C = B + U V^T: B is the symmetric band matrix of offsets -w..w without
    wrap-around, V^T reads the 2w rows idx (the first and last w), and
    U = V S holds the wrapped corners S = (C - B)[idx, idx]. B is factored
    once by LAPACK dpbtrf, which fails when B is not positive definite
    (possible even for an SPD C, since B's spectrum fills the symbol's range
    between C's sample points). By Woodbury, with y = B^(-1) r,
    Z = B^(-1) U and the 2w x 2w capacitance K = I + Z[idx],
    C^(-1) r = y - Z K^(-1) y[idx]: one dpbtrs and a rank-2w update, O(n w).
    """
    # Imported here, not at module level: scipy.linalg costs about 6 MB of
    # resident memory and tens of milliseconds of import time, which the
    # commands that never solve with a banded circulant should not pay.
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    n = col.size
    band = np.zeros((w + 1, n), order="F")
    for k in range(w + 1):
        band[k, : n - k] = col[k]  # LAPACK lower band storage: band[i - j, j] = B[i, j]
    chol, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        return None
    idx = np.r_[0:w, n - w : n]
    offset = idx[:, None] - idx[None, :]
    corners = np.where(np.abs(offset) > w, col[offset % n], 0.0)
    # basis = B^(-1) V from w solves: B is persymmetric, so B^(-1) e_(n-1-i)
    # is B^(-1) e_i reversed. B^(-1) e_i decays away from row i, so it is
    # solved on the leading m rows (whose Cholesky factor is the leading
    # part of B's) until its last w entries fall below 1e-290 of its
    # largest, which leaves the rest zero to working precision. A solve of
    # all n rows can run through subnormal numbers and take 10x longer.
    m = min(n, 1024)
    head = dpbtrs(chol[:, :m], np.eye(m, w, order="F"), lower=1, overwrite_b=1)[0]
    while m < n and np.max(np.abs(head[m - w :]), initial=0.0) > 1e-290 * np.max(np.abs(head), initial=0.0):
        m = min(n, 16 * m)
        head = dpbtrs(chol[:, :m], np.eye(m, w, order="F"), lower=1, overwrite_b=1)[0]
    basis = np.zeros((n, 2 * w))
    basis[:m, :w] = head
    basis[:, w:] = basis[::-1, :w][:, ::-1]
    capacitance = np.eye(2 * w) + basis[idx] @ corners  # Z = basis @ corners

    def apply(r: np.ndarray) -> np.ndarray:
        y = dpbtrs(chol, r, lower=1)[0]
        y -= basis @ (corners @ np.linalg.solve(capacitance, y[idx]))
        return y

    return apply


APPLY_EIGENBASIS = "eigenbasis"
APPLY_BANDED_CHOLESKY = "banded_cholesky"
APPLY_SPECTRAL = "spectral"


def _real_inverse(C: CirculantMatrix) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """The map r -> C^(-1) r for real r, with its path name: the one
    dispatch behind circulant_solve and pcg_solve.

    banded_cholesky: at an n with a prime factor above 7, a banded column
    (_band_halfwidth) with a positive spectrum and a positive definite band
    is applied by _banded_inverse, in O(n w) with no FFT. spectral: every
    other column, and every column at a 7-smooth n, is the division
    irfft(rfft(r) / half_eigenvalues), which builds nothing; at an n with
    a prime factor above 7 its two transforms are Bluestein FFTs. Raises
    PreconditionerSingular.
    """
    n, half = C.n, C.half_eigenvalues
    _check_nonsingular(half)
    w = None if _is_7_smooth(n) else _band_halfwidth(C.first_column)
    if w is not None and float(np.min(half)) > 0.0:
        banded = _banded_inverse(C.first_column, w)
        if banded is not None:
            return APPLY_BANDED_CHOLESKY, banded
    return APPLY_SPECTRAL, lambda r: np.fft.irfft(np.fft.rfft(r) / half, n)


def circulant_solve(C: CirculantMatrix, r: np.ndarray) -> np.ndarray:
    """Solve C z = r for a real r of shape (n,) (ValueError otherwise).

    The map of _real_inverse, built for this one call: a banded Cholesky
    factorization for a banded SPD column at an n with a prime factor
    above 7, and otherwise the division irfft(rfft(r) / half_eigenvalues),
    which builds nothing. Raises PreconditionerSingular when the smallest
    eigenvalue modulus does not exceed SINGULARITY_RTOL times the largest
    (singular to machine precision).
    """
    r = np.asarray(r)
    n = C.n
    if r.shape != (n,):
        raise ValueError(f"operand must have shape ({n},), got {r.shape}")
    if np.iscomplexobj(r):
        raise ValueError("operand must be real, got a complex array")
    return _real_inverse(C)[1](r)


_SQRT2 = math.sqrt(2.0)


def _widest_offset(T: ToeplitzOperator) -> int:
    """r, the widest offset at which T holds a nonzero value (0 if none)."""
    return max((abs(k) for k, v in T.diagonals.items() if v != 0.0), default=0)


class _Eigenbasis:
    """T in the orthonormal basis of the rfft coefficients.

    The coordinates of a real v of length n are the coefficients
    rfft(v)_k scaled by sqrt(w_k / n), w_k the Hermitian weight (1 at k = 0
    and at k = n/2, 2 otherwise): the n//2+1 real parts, then the
    imaginary parts. Dot products of coordinates are those of the real
    vectors, and a circulant is a division or multiplication of each
    coefficient's two parts by its distinct eigenvalues. T = C_T - W:
    C_T is the circulant whose column wraps T's diagonals
    (c_j = t_j + t_(j-n)), with distinct eigenvalues lam by
    CirculantMatrix's rule, and W holds the entries t_(i-j-n) (i > j) and
    t_(i-j+n) (i < j) that C_T wraps into the corners. W is zero outside
    the rows and columns R = [0, r) and [n-r, n), r T's widest nonzero
    offset, so W = E S E^T, S = W[R, R] and E's columns the coordinates of
    e_i, i in R: sqrt(w_k / n)(cos - i sin)(2 pi i k / n). Row n-i is the
    conjugate of row i, so rows keeps only the distinct cosine rows
    j = 0..r and the nonzero sine rows j = 1..r (j < n/2), 2r+1 of them
    when 2r < n, built from the exact tables; corners is S moved onto them
    (see _eigenbasis_matvec). Built once per operator (_eigenbasis).
    """

    def __init__(self, T: ToeplitzOperator) -> None:
        n, m = T.n, T.n // 2 + 1
        cos = _mirror(_cos_table(n), n)
        col = np.zeros(n)
        for k, v in T.diagonals.items():
            col[k % n] += v  # at most two offsets a class: the sum is symmetric bit for bit
        self.n, self.lam = n, _half_spectrum(col, cos)
        r = _widest_offset(T)
        i = np.arange(n) if 2 * r >= n else np.concatenate((np.arange(r), np.arange(n - r, n)))  # R
        n_cos, n_sin = (min(r, n // 2) + 1 if r else 0), min(r, (n - 1) // 2)
        diff = i[:, None] - i
        wrapped = diff - n * np.sign(diff)  # the offset of T that C_T wraps onto (i, j)
        w = T._kernel.size // 2
        S = np.where((diff != 0) & (np.abs(wrapped) <= w), T._kernel.take(wrapped + w, mode="clip"), 0.0)
        # e_i . d = L[i] . (cosine rows . re d, sine rows . im d): row i is row
        # j = min(i, n - i), its sine part negated unless i > n - i
        j = np.minimum(i, n - i)
        L = np.zeros((i.size, n_cos + n_sin))
        L[np.arange(i.size), j] = 1.0
        has_sin = (j > 0) & (2 * j < n)
        L[has_sin, n_cos - 1 + j[has_sin]] = np.where(i > n - i, 1.0, -1.0)[has_sin]
        # rows @ d.T is (g, 2), and cosine rows read its column 0 (real
        # parts), sine rows column 1; the (2, g) factor that multiplies rows
        # writes real parts from its row 0, imaginary ones from row 1.
        g = np.arange(n_cos + n_sin)
        part = (g >= n_cos).astype(int)
        self.corners = np.zeros((2 * g.size, 2 * g.size))
        self.corners[(part * g.size + g)[:, None], 2 * g + part] = L.T @ S @ L
        k = np.arange(m)
        sin = _mirror(_sin_table(n), n, -1.0) if n_sin else None
        self.rows = np.empty((g.size, m))
        for row in g:
            table, jj = (cos, row) if row < n_cos else (sin, row - n_cos + 1)
            table.take(jj * k, out=self.rows[row], mode="wrap")
        scale = np.full(m, _SQRT2)  # sqrt(w_k), then over sqrt(n), as to_coords scales
        scale[[0, -1] if n % 2 == 0 else 0] = 1.0
        self.rows *= scale / math.sqrt(n)

    def to_coords(self, v: np.ndarray) -> np.ndarray:
        c = np.fft.rfft(v, norm="ortho")
        c[1 : (self.n + 1) // 2] *= _SQRT2
        return np.concatenate((c.real, c.imag))

    def from_coords(self, f: np.ndarray) -> np.ndarray:
        m = self.n // 2 + 1
        c = np.empty(m, dtype=complex)
        c.real, c.imag = f[:m], f[m:]
        c[1 : (self.n + 1) // 2] /= _SQRT2
        return np.fft.irfft(c, self.n, norm="ortho")


def _eigenbasis(T: ToeplitzOperator) -> _Eigenbasis:
    """T's _Eigenbasis, built at the first call and kept on T: the solves
    of one operator with several preconditioners share it."""
    if T._basis is None:
        object.__setattr__(T, "_basis", _Eigenbasis(T))
    return T._basis


def _eigenbasis_matvec(E: _Eigenbasis, d: np.ndarray) -> np.ndarray:
    """T d in E's coordinates: lam * d - E S E^T d, O(n r) with no FFT."""
    d2 = d.reshape(2, -1)
    q = d2 * E.lam
    q -= (E.corners @ (E.rows @ d2.T).reshape(-1)).reshape(2, -1) @ E.rows
    return q.reshape(-1)


def _coordinates(T: ToeplitzOperator, M: Optional[CirculantMatrix]) -> tuple:
    """The coordinates pcg_solve iterates in: (apply_path, the apply of
    M^(-1), the product with T, the coordinates of a real vector, the
    real vector of the solution's coordinates x). Raises
    PreconditionerSingular.

    They are T's _Eigenbasis when _real_inverse(M) is spectral and T's
    widest nonzero offset is at most MAX_BAND_HALFWIDTH: the apply divides
    by M's distinct eigenvalues and the product is _eigenbasis_matvec.
    to_real anchors x in real space: it returns the vector it returned
    last time plus the back-transform of what x gained since, so each
    transform rounds only that gain. Otherwise they are real space:
    toeplitz_matvec, _real_inverse(M) or without M np.copy (the loop
    writes r in place, so the apply and the coordinates of b are fresh
    arrays), and x is its own real vector.
    """
    apply_path, precondition = (None, np.copy) if M is None else _real_inverse(M)
    if apply_path != APPLY_SPECTRAL or _widest_offset(T) > MAX_BAND_HALFWIDTH:
        return apply_path, precondition, lambda d: toeplitz_matvec(T, d), np.copy, lambda x: x

    E, inv = _eigenbasis(T), M.half_eigenvalues
    real = anchor = None

    def to_real(x: np.ndarray) -> np.ndarray:
        nonlocal real, anchor
        if anchor is None:
            real, anchor = E.from_coords(x), x.copy()
        else:
            real += E.from_coords(np.subtract(x, anchor, out=anchor))
            anchor[:] = x
        return real

    return (
        APPLY_EIGENBASIS,
        lambda r: (r.reshape(2, -1) / inv).reshape(-1),
        lambda d: _eigenbasis_matvec(E, d),
        E.to_coords,
        to_real,
    )


STATUS_CONVERGED = "converged"
STATUS_STAGNATED = "stagnated"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_SINGULAR = "preconditioner_singular"
STATUS_INDEFINITE = "preconditioner_indefinite"
STATUS_OPERATOR_INDEFINITE = "operator_indefinite"


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one conjugate gradient run.

    relative_residuals starts at the initial residual and gains one entry
    per iteration, the recursive residual after it; it is empty only when
    the preconditioner was rejected as singular before any work happened.
    true_relative_residual is ||b - T x||_2 / ||b||_2 of the returned
    solution, from the matvec that decided the status; it can exceed the
    last recursive residual, and it is None when there is no solution.
    status is "converged" exactly when it meets tol. The report does not
    name the exponent behind the preconditioner: that is the caller's p,
    and BenchmarkCell.p in a grid.
    apply_path names how the preconditioned solve ran: "eigenbasis"
    (see _Eigenbasis), or in real space "banded_cholesky" or "spectral"
    (see _real_inverse); _coordinates picks it. None when unpreconditioned
    or when nothing was built (b = 0, singular M).
    replacements counts the times the recursive residual was replaced by
    the true one. matvecs counts products with T, the true-residual ones
    included, and applies counts applies of M^(-1) (0 when
    unpreconditioned): a solve that returns a solution after k iterations
    made k + 1 + replacements matvecs and k applies.
    """

    iterations: int
    relative_residuals: tuple[float, ...]
    status: str
    solution: Optional[np.ndarray] = None
    true_relative_residual: Optional[float] = None
    apply_path: Optional[str] = None
    matvecs: int = 0
    applies: int = 0
    replacements: int = 0


def pcg_solve(
    T: ToeplitzOperator,
    b: np.ndarray,
    M: Optional[CirculantMatrix] = None,
    tol: float = DEFAULT_PCG_TOL,
    maxit: Optional[int] = None,
) -> SolveReport:
    """Conjugate gradient on T x = b, optionally preconditioned by M.

    Residuals are tracked recursively, and the true residual
    ||b - T x||_2 / ||b||_2 is computed, by one matvec, whenever the
    recursive one reaches the trigger: tol, or the rounding floor
    eps * sum|t_k| * ||x||_2 / ||b||_2 when that floor exceeds 10 tol,
    since below it the recursive residual no longer follows the true one
    (van der Vorst & Ye 2000; Greenbaum 1997). A true residual that meets
    tol is converged. One at or below the floor that triggered its check,
    or one that has not halved since the last replacement (or since the
    start, at 1), is stagnated: the solution is returned, at the accuracy
    float64 attains on this system. Otherwise it replaces the recursive
    residual, the search direction restarts, and the iteration goes on.
    After maxit iterations, default 10n, the status is max_iterations, or
    converged if the true residual meets tol. T and M are real symmetric
    by construction. Each iteration makes one apply of M^(-1) and one
    product with T, in the coordinates _coordinates picks once per solve,
    before the first iteration. In T's eigenbasis (_Eigenbasis) the apply
    is a division by M's eigenvalues and the product _eigenbasis_matvec,
    so the loop takes no FFT but one rfft of b and, at each true-residual
    check, an irfft of what x gained since the last check, added to the
    real solution of that check (x anchored in real space) and then an
    rfft of the residual if it replaces the recursive one. Real space
    takes toeplitz_matvec, one convolution with T's kernel, and a banded
    Cholesky apply for a banded SPD M at an n with a prime factor above
    7, or for an operator wider than MAX_BAND_HALFWIDTH one rfft/irfft
    pair per apply (_real_inverse). The true residual is
    b - toeplitz_matvec(T, x) in real space on either path. The report's
    apply_path names the path, and its matvecs, applies and replacements
    count the work.

    Failure rule: an argument that is malformed in itself (b complex, of
    the wrong shape or not finite, tol not a finite number > 0, maxit not
    None or an integral number >= 0, M of another dimension) raises
    ValueError naming it before any work; T and M raised theirs when built.
    Anything the solve finds out about T or M is a status, with no
    solution: a singular M is preconditioner_singular without iterating; a
    nonpositive preconditioned inner product r.z is
    preconditioner_indefinite, and a nonpositive curvature d.Td is
    operator_indefinite, each with iterations = the completed ones.
    """
    if np.iscomplexobj(b):
        raise ValueError("right-hand side must be real, got a complex array")
    b = np.asarray(b, dtype=float)
    if b.shape != (T.n,):
        raise ValueError(f"right-hand side must have shape ({T.n},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    tol = _positive("tol", tol)
    maxit = 10 * T.n if maxit is None else _number("maxit", maxit, int)
    if maxit < 0:
        raise ValueError(f"maxit must be >= 0, got {maxit}")
    if M is not None and M.n != T.n:
        raise ValueError(f"preconditioner dimension {M.n} differs from operator dimension {T.n}")

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveReport(0, (0.0,), STATUS_CONVERGED, np.zeros(T.n), 0.0)

    try:
        apply_path, precondition, matvec, to_coords, to_real = _coordinates(T, M)
    except PreconditionerSingular:
        return SolveReport(0, (), STATUS_SINGULAR)

    r = to_coords(b)
    x = np.zeros(r.size)
    solution = None  # to_real(x) at the last true residual
    residuals = [1.0]
    matvecs = applies = replacements = 0
    floor_scale = np.finfo(float).eps * float(np.abs(T._kernel).sum()) / bnorm
    replaced = 1.0  # the true residual at the last replacement, 1 before the first

    def report(iterations: int, status: str, true_res: Optional[float] = None) -> SolveReport:
        applied = applies if M is not None else 0  # the unpreconditioned "apply" is a copy
        return SolveReport(
            iterations, tuple(residuals), status, None if true_res is None else solution, true_res,
            apply_path, matvecs, applied, replacements,
        )

    def true_residual() -> tuple[np.ndarray, float]:
        nonlocal matvecs, solution
        matvecs += 1
        solution = to_real(x)
        res = b - toeplitz_matvec(T, solution)
        return res, math.sqrt(res @ res) / bnorm

    if residuals[-1] <= tol:
        return report(0, STATUS_CONVERGED, true_residual()[1])

    restart = True
    for it in range(1, maxit + 1):
        z = precondition(r)
        applies += 1
        rho_next = float(r @ z)
        if rho_next <= 0.0:
            return report(it - 1, STATUS_INDEFINITE)
        if not restart:
            z += (rho_next / rho) * d  # z is fresh from the apply: the new direction is built in it
        d, rho, restart = z, rho_next, False
        q = matvec(d)
        matvecs += 1
        dq = float(d @ q)
        if not dq > 0.0:
            return report(it - 1, STATUS_OPERATOR_INDEFINITE)
        alpha = rho / dq
        x += alpha * d
        r -= alpha * q
        residuals.append(math.sqrt(r @ r) / bnorm)
        floor = floor_scale * math.sqrt(x @ x)
        at_floor = floor > 10.0 * tol
        if residuals[-1] <= (floor if at_floor else tol):
            true_r, true_res = true_residual()
            if true_res <= tol:
                return report(it, STATUS_CONVERGED, true_res)
            if (at_floor and true_res <= floor) or true_res > 0.5 * replaced:
                return report(it, STATUS_STAGNATED, true_res)
            r, replaced, restart = to_coords(true_r), true_res, True
            replacements += 1
    true_res = true_residual()[1]
    return report(maxit, STATUS_CONVERGED if true_res <= tol else STATUS_MAX_ITERATIONS, true_res)


def select_p_tilde(T: ToeplitzOperator, p_grid: Sequence[float]) -> float:
    """Smallest exponent on the strictly ascending grid whose minimizer is SPD.

    C.is_spd() is the only admissibility test, and for the operators PCG
    accepts it is also the test on the preconditioned spectrum: when T is
    symmetric positive definite, C^(-1) T is similar to
    T^(1/2) C^(-1) T^(1/2), which by Sylvester's law of inertia has the
    inertia of C^(-1), that is of C. So C^(-1) T has a real positive
    spectrum exactly when C is SPD. Each grid entry must be a finite real
    number (a bool is not one; ValueError naming the entry otherwise).
    """
    grid = [_number("p_grid entry", p) for p in p_grid]
    if not grid:
        raise ValueError("exponent grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("exponent grid must be strictly ascending")
    for p in grid:
        if lp_circulant_minimizer(T, p).is_spd():
            return p
    raise NoAdmissibleExponent(f"no exponent in {grid} yields an admissible preconditioner")


@dataclass(frozen=True, eq=False)
class SpectrumDiagnostic:
    """Preconditioned spectrum plus how much of it clusters at 1."""

    eigenvalues: np.ndarray
    cluster_fractions: dict[float, float]


def preconditioned_spectrum_diagnostic(T: ToeplitzOperator, C: CirculantMatrix) -> SpectrumDiagnostic:
    """Dense spectrum of C^(-1/2) T C^(-1/2) with clustering statistics.

    Only available at diagnostic scale (n <= 256) and for SPD C. Reports
    the fraction of eigenvalues within [1-rho, 1+rho] for rho in
    {0.1, 0.01}.
    """
    if T.n != C.n:
        raise ValueError("operator and circulant dimensions differ")
    if T.n > DENSE_DIAGNOSTIC_LIMIT:
        raise ValueError(f"dense diagnostic restricted to n <= {DENSE_DIAGNOSTIC_LIMIT}")
    if not C.is_spd():
        raise NotPositiveDefinite("diagnostic needs a symmetric positive definite circulant")
    s, u = np.linalg.eigh(C.to_dense())
    inv_sqrt = (u / np.sqrt(s)) @ u.T
    middle = inv_sqrt @ T.to_dense() @ inv_sqrt
    evals = np.linalg.eigvalsh(0.5 * (middle + middle.T))
    fractions = {rho: float(np.mean(np.abs(evals - 1.0) <= rho)) for rho in (0.1, 0.01)}
    return SpectrumDiagnostic(evals, fractions)


# ---------------------------------------------------------------------------
# Benchmark driver: iteration-count tables over an (n, p) grid.


@dataclass(frozen=True)
class BenchmarkConfig:
    """One table's worth of solver runs for a single model symbol.

    Every value is checked here, with a ValueError naming its key: alpha,
    beta, gamma, tol and the p_list entries are finite numbers, stored as
    float; the n_list entries are distinct positive integers, and maxit and
    seed None or integers, stored as int (16.0 passes, 16.7 does not).
    """

    alpha: float
    beta: float
    gamma: float
    n_list: tuple[int, ...]
    p_list: tuple[float, ...]
    tol: float = DEFAULT_PCG_TOL
    maxit: Optional[int] = None  # per-cell default: pcg_solve's 10n
    correction: str = "off"
    rhs: str = "ones"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.correction not in ("on", "off"):
            raise ValueError(f"correction must be 'on' or 'off', got {self.correction!r}")
        if self.rhs not in ("ones", "random"):
            raise ValueError(f"rhs must be 'ones' or 'random', got {self.rhs!r}")
        for key in ("alpha", "beta", "gamma"):
            object.__setattr__(self, key, _number(key, getattr(self, key)))
        object.__setattr__(self, "tol", _positive("tol", self.tol))
        for key, kind in (("n_list", int), ("p_list", float)):
            entries = getattr(self, key)
            if not isinstance(entries, (list, tuple, np.ndarray)):
                raise ValueError(f"{key} must be a list of numbers, got {entries!r}")
            object.__setattr__(self, key, tuple(_number(f"{key} entry", x, kind) for x in entries))
        for key in ("maxit", "seed"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _number(key, getattr(self, key), int))
        if not self.n_list or min(self.n_list) < 1:
            raise ValueError("n_list must contain positive dimensions")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError(f"n_list entries must be distinct, got {list(self.n_list)}")
        if not self.p_list or min(self.p_list) < 1:
            raise ValueError("p_list entries must be >= 1")
        if self.maxit is not None and self.maxit < 0:
            raise ValueError(f"maxit must be >= 0, got {self.maxit}")

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"benchmark config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown benchmark config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(doc)
        if missing:
            raise ValueError(f"benchmark config missing keys: {sorted(missing)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class BenchmarkCell:
    """One (n, p) solver run; p and half_eigenvalues, the preconditioner's
    own read-only CirculantMatrix.half_eigenvalues, are None for the
    unpreconditioned column."""

    n: int
    p: Optional[float]
    report: SolveReport
    half_eigenvalues: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    config: BenchmarkConfig
    cells: tuple[BenchmarkCell, ...]

    def cell(self, n: int, p: Optional[float]) -> BenchmarkCell:
        for c in self.cells:
            if c.n == n and c.p == p:
                return c
        raise KeyError(f"no cell for n={n}, p={p}")


def _bench_cell(T: ToeplitzOperator, p: Optional[float], b: np.ndarray, config: BenchmarkConfig) -> BenchmarkCell:
    n = T.n
    if p is None:
        report = pcg_solve(T, b, None, config.tol, config.maxit)
        return BenchmarkCell(n, None, report, None)
    C = lp_circulant_minimizer(T, p)
    if config.correction == "on" and not C.is_spd():
        try:
            C = strang_type_correction(C)
        except UncorrectableSpectrum:
            pass  # run with the raw circulant; failure shows in the report
    report = pcg_solve(T, b, C, config.tol, config.maxit)
    return BenchmarkCell(n, p, report, C.half_eigenvalues)


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Sweep the (n, p) grid plus the unpreconditioned column, serially.

    Rows run in n_list order and cells within a row in p_list order, the
    unpreconditioned cell last. A row's right-hand side is all-ones, or
    when rhs='random' one standard normal draw of length n from the seeded
    generator, shared by the row's cells.
    """
    symbol = ToeplitzSymbol.from_model(config.alpha, config.beta, config.gamma)
    rng = np.random.default_rng(config.seed)
    cells = []
    for n in config.n_list:
        b = np.ones(n) if config.rhs == "ones" else rng.standard_normal(n)
        T = build_toeplitz(symbol, n)  # one operator a row: its cells share its eigenbasis
        cells += [_bench_cell(T, p, b, config) for p in config.p_list + (None,)]
    return BenchmarkResult(config, tuple(cells))


def _cell_text(cell: BenchmarkCell) -> str:
    """The iteration count of a converged cell, whose true residual meets
    tol; '#' for every other status, stagnated included."""
    if cell.report.status == STATUS_CONVERGED:
        return str(cell.report.iterations)
    return "#"


def _table_rows(result: BenchmarkResult) -> list[list[str]]:
    """Header row, then one row per n: iteration counts, '#' for failed cells."""
    p_cols = list(result.config.p_list) + [None]
    header = ["n"] + [f"p={p:g}" for p in result.config.p_list] + ["n. p."]
    rows = [[str(n)] + [_cell_text(result.cell(n, p)) for p in p_cols] for n in result.config.n_list]
    return [header] + rows


def render_table_csv(result: BenchmarkResult) -> str:
    return "".join(",".join(row) + "\n" for row in _table_rows(result))


def render_table_markdown(result: BenchmarkResult) -> str:
    header, *rows = _table_rows(result)
    lines = ["| " + " | ".join(row) + " |" for row in [header] + rows]
    lines.insert(1, "|" + "|".join(["---"] * len(header)) + "|")
    return "\n".join(lines) + "\n"
