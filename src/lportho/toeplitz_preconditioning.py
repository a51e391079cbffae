"""Entrywise-lp-optimal circulant preconditioning of Toeplitz systems.

A banded real symmetric Toeplitz matrix generated by a trigonometric
polynomial is approximated by the circulant that minimizes the entrywise
p-norm of the difference. The minimizer has a per-diagonal closed form (a
weighted power mean of the two Toeplitz offsets each circulant diagonal
touches), computed only for the at most 2w+1 classes a band of halfwidth
w reaches; every other entry of the column is 0. A Toeplitz operator
keeps its diagonals as one dense kernel over offsets -w..w, w its widest
stored offset, and a matrix-vector product is one convolution with it, in
O(n(2w+1)). A circulant keeps one real spectrum, its eigenvalues, by a
rule that reads only its column: the cosine sum, in O(n w), for a banded
column (a minimizer of a banded operator), rfft for any other. At a
7-smooth n (no prime factor above 7) a circulant is inverted by
half-spectrum division with real FFTs; at any other n a banded SPD column
by a banded Cholesky factorization with a low-rank correction for the
wrapped corners, and other columns by a folded power-of-two convolution,
so no solve takes a slow (Bluestein) FFT of length n, and nothing here a
complex FFT. The solver is a preconditioned conjugate gradient that stops
at the accuracy float64 attains (the true residual, checked when the
recursive one reaches tol or its rounding floor, decides between
converged, a residual replacement and stagnated), with explicit failure
reporting for singular or indefinite
preconditioners and indefinite operators. Symbols, operators and
circulants hold real symmetric data only, the one kind it solves with;
each checks its data once, at construction, and raises ValueError.

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


@dataclass(frozen=True)
class ToeplitzSymbol:
    """Generating function of a family of Toeplitz matrices.

    Stored as its Fourier coefficients {offset k: value}, finite, real and
    symmetric (t_k = t_(-k)); ValueError otherwise. The quartic model family
    alpha + beta(2-2cos theta) + gamma(2-2cos theta)^2 is banded with
    t_0 = alpha + 2 beta + 6 gamma, t_(+-1) = -beta - 4 gamma, t_(+-2) = gamma.
    """

    coefficients: Mapping[int, float]
    model_params: Optional[tuple[float, float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _symmetric_diagonals(self.coefficients))

    @classmethod
    def from_model(cls, alpha: float, beta: float, gamma: float) -> "ToeplitzSymbol":
        phi = alpha + 2.0 * beta + 6.0 * gamma
        psi = -beta - 4.0 * gamma
        coeffs = {0: phi, 1: psi, -1: psi, 2: gamma, -2: gamma}
        return cls(coeffs, (float(alpha), float(beta), float(gamma)))


@dataclass(frozen=True)
class ToeplitzOperator:
    """Real symmetric Toeplitz matrix given by its diagonal coefficients.

    Matrix entries are A[i, j] = diagonals[i - j]; missing offsets are zero.
    n must be an integral number >= 1 and is stored as int (8.0 gives 8;
    2.5 and True are a ValueError naming n). The diagonals must be finite
    real numbers with t_k = t_(-k) (ValueError naming the offset
    otherwise); offsets with |k| >= n are dropped.
    Construction stores them once more as a read-only float64 kernel
    h[w + k] = t_k over offsets -w..w, w the widest stored offset;
    toeplitz_matvec convolves with it. A matvec costs O(n(2w+1)) whatever
    the band holds, so one far offset (up to n - 1) makes every product
    O(n^2); the operators this package builds have w <= 2.
    """

    n: int
    diagonals: Mapping[int, float]
    symbol: Optional[ToeplitzSymbol] = None
    _kernel: np.ndarray = field(init=False, repr=False, compare=False)

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
    return ToeplitzOperator(n, dict(symbol.coefficients), symbol)


@dataclass(frozen=True)
class CirculantMatrix:
    """Real symmetric circulant matrix stored by first column, eigenvalues cached.

    The first column fixes the matrix, and its length is n. It must be
    1-d of length n >= 1, real, finite and symmetric, c_k == c_(n-k)
    exactly (ValueError otherwise), so the spectrum is real and even. It is
    the only spectrum kept, read-only, and solves take their multipliers
    from it. The column alone picks how its n//2+1 distinct values are
    computed: a banded column (see _band_halfwidth) takes the cosine sum
    lambda_j = c_0 + 2 sum_(k<=w) c_k cos(2 pi jk / n) in O(n w), any other
    rfft(c).real. The rest are mirrored, lambda_(n-j) == lambda_j bit for
    bit. p records the exponent used to build the matrix when it came from
    a minimization; it follows PExponent's rule, a finite number >= 1 that
    is not a bool (ValueError otherwise), and is stored as a float.
    """

    first_column: np.ndarray
    p: Optional[float] = None
    symbol: Optional[ToeplitzSymbol] = None
    _eig: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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
        if self.p is not None:
            object.__setattr__(self, "p", PExponent(self.p).p)

    @property
    def n(self) -> int:
        return self.first_column.size

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eig is None:
            col = self.first_column
            w = _band_halfwidth(col)
            half = np.fft.rfft(col).real if w is None else _banded_spectrum(col, w)
            lam = np.concatenate([half, half[1 : (self.n + 1) // 2][::-1]])
            lam.setflags(write=False)
            object.__setattr__(self, "_eig", lam)
        return self._eig

    @property
    def num_negative_eigenvalues(self) -> int:
        return int(np.sum(self.eigenvalues < 0.0))

    def is_spd(self) -> bool:
        """Every eigenvalue strictly positive."""
        return bool(np.min(self.eigenvalues) > 0.0)

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
    return CirculantMatrix(col, p, T.symbol)


def circulant_spectrum(C: CirculantMatrix) -> np.ndarray:
    """Eigenvalues of a circulant: the DFT of its first column.

    A writable copy of C.eigenvalues: the O(n w) cosine sum for a banded
    column, rfft of the column otherwise, mirrored into j > n/2.
    """
    return np.array(C.eigenvalues, copy=True)


def model_spectrum_closed_form(C: CirculantMatrix) -> np.ndarray:
    """Closed-form eigenvalues of a model-family minimizer.

    lambda_j = f(theta_j) + 2(c_1 - psi)cos(theta_j) + 2(c_2 - gamma)cos(2 theta_j)
    on theta_j = 2 pi j / n: the symbol's values plus the perturbation from
    the two wrapped diagonals. Requires the circulant to carry a model symbol.
    """
    if C.symbol is None or C.symbol.model_params is None:
        raise ValueError("closed-form spectrum needs a model-family symbol")
    if C.n < 5:
        raise ValueError("closed form assumes the five model diagonals are distinct classes")
    alpha, beta, gamma = C.symbol.model_params
    psi = -beta - 4.0 * gamma
    theta = 2.0 * np.pi * np.arange(C.n) / C.n
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
    n = C.n
    lam = C.eigenvalues[: n // 2 + 1]  # the distinct eigenvalues
    good = lam > 0.0
    if not np.any(good):
        raise UncorrectableSpectrum("no eigenvalue is positive")
    if np.all(good):
        return C
    col = np.fft.irfft(np.where(lam != 0.0, np.abs(lam), np.min(lam[good])), n)[: n // 2 + 1]
    return CirculantMatrix(np.concatenate([col, col[1 : (n + 1) // 2][::-1]]), C.p, C.symbol)


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


# Widest band the banded path takes. Its set-up solves for 2w right-hand
# sides and its apply carries a rank-2w correction, while an FFT's cost
# does not grow with the band; the model family has w = 2.
MAX_BAND_HALFWIDTH = 8


def _band_halfwidth(col: np.ndarray) -> Optional[int]:
    """w when the banded paths apply to a circulant's first column, else None.

    They apply when the (symmetric) column is zero outside offsets -w..w,
    with w <= MAX_BAND_HALFWIDTH and 4w < n, whatever n's prime factors.
    Every other column keeps the FFTs.
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


def _banded_spectrum(col: np.ndarray, w: int) -> np.ndarray:
    """lambda_j = c_0 + 2 sum_(k=1..w) c_k cos(2 pi jk / n) for j = 0..n//2, in O(n w)."""
    n = col.size
    j = np.arange(n // 2 + 1)
    lam = np.full(j.size, col[0])
    if w:
        cos = _cos_table(n)
        for k in range(1, w + 1):
            q = j * k % n
            lam += 2.0 * col[k] * cos[np.minimum(q, n - q)]
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


APPLY_HALF_SPECTRUM = "half_spectrum"
APPLY_FOLDED_KERNEL = "folded_kernel"
APPLY_BANDED_CHOLESKY = "banded_cholesky"


def _real_inverse(C: CirculantMatrix) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """The map r -> C^(-1) r for real r, with its path name.

    half = eigenvalues[: n // 2 + 1], the distinct eigenvalues.
    half_spectrum: when n is 7-smooth (no prime factor above 7) an apply is
    irfft(rfft(r) / half). banded_cholesky: at any other n, a banded column
    (_band_halfwidth) with a positive spectrum and a positive definite band
    is applied by _banded_inverse, in O(n w) with no FFT. folded_kernel:
    otherwise the first column of C^(-1), irfft(1 / half), is transformed
    once at the power of two m >= 2n - 1, and an apply is a linear
    convolution by one rfft and one irfft of length m with the tail
    y[n:2n-1] folded onto y[:n-1]: circular convolution without an FFT of
    length n. Raises PreconditionerSingular.
    """
    n = C.n
    lam = C.eigenvalues
    _check_nonsingular(lam)
    half = lam[: n // 2 + 1]  # contiguous: a strided divisor slows every apply
    if _is_7_smooth(n):
        return APPLY_HALF_SPECTRUM, lambda r: np.fft.irfft(np.fft.rfft(r) / half, n)
    w = _band_halfwidth(C.first_column)
    if w is not None and float(np.min(lam)) > 0.0:
        banded = _banded_inverse(C.first_column, w)
        if banded is not None:
            return APPLY_BANDED_CHOLESKY, banded
    m = 1 << (2 * n - 2).bit_length()
    kernel = np.fft.rfft(np.fft.irfft(1.0 / half, n), m)

    def apply(r: np.ndarray) -> np.ndarray:
        y = np.fft.irfft(np.fft.rfft(r, m) * kernel, m)
        y[: n - 1] += y[n : 2 * n - 1]
        return y[:n]

    return APPLY_FOLDED_KERNEL, apply


def circulant_solve(C: CirculantMatrix, r: np.ndarray) -> np.ndarray:
    """Solve C z = r for a real r of shape (n,) (ValueError otherwise).

    Takes the paths of _real_inverse, built for this one call: half-spectrum
    division with real FFTs when n is 7-smooth; otherwise a banded Cholesky
    factorization for a banded SPD column, and a folded power-of-two
    convolution with the first column of C^(-1) for any other. Raises
    PreconditionerSingular when the smallest eigenvalue modulus does not
    exceed SINGULARITY_RTOL times the largest (singular to machine
    precision).
    """
    r = np.asarray(r)
    if r.shape != (C.n,):
        raise ValueError(f"operand must have shape ({C.n},), got {r.shape}")
    if np.iscomplexobj(r):
        raise ValueError("operand must be real, got a complex array")
    return _real_inverse(C)[1](r)


STATUS_CONVERGED = "converged"
STATUS_STAGNATED = "stagnated"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_SINGULAR = "preconditioner_singular"
STATUS_INDEFINITE = "preconditioner_indefinite"
STATUS_OPERATOR_INDEFINITE = "operator_indefinite"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one conjugate gradient run.

    relative_residuals starts at the initial residual and gains one entry
    per iteration, the recursive residual after it; it is empty only when
    the preconditioner was rejected as singular before any work happened.
    true_relative_residual is ||b - T x||_2 / ||b||_2 of the returned
    solution, from the matvec that decided the status; it can exceed the
    last recursive residual, and it is None when there is no solution.
    status is "converged" exactly when it meets tol. The exponent behind
    the preconditioner is M.p, on the circulant the solve was given.
    apply_path names how M^(-1) was applied: "half_spectrum",
    "banded_cholesky" or "folded_kernel" (see _real_inverse); None when
    unpreconditioned or when no apply was built (b = 0, singular M).
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
    tol is converged. One that has not halved since the last replacement
    (or since the start, at 1) is stagnated: the solution is returned, at
    the accuracy float64 attains on this system. Otherwise it replaces the
    recursive residual, the search direction restarts, and the iteration
    goes on. After maxit iterations, default 10n, the status is
    max_iterations, or converged if the true residual meets tol. T and M
    are real symmetric by construction. Each iteration makes one apply of
    M^(-1) and one matvec (toeplitz_matvec, one convolution with T's
    kernel). The apply is built once per solve, before the first iteration,
    as in circulant_solve: half-spectrum division at 7-smooth n; at other n
    a banded Cholesky apply for a banded SPD M, a folded power-of-two
    convolution otherwise. The report's apply_path names it, and its
    matvecs, applies and replacements count the work.

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

    if M is None:
        apply_path, precondition = None, np.copy  # a fresh array: the updates below write r in place
    else:
        try:
            apply_path, precondition = _real_inverse(M)
        except PreconditionerSingular:
            return SolveReport(0, (), STATUS_SINGULAR)

    x = np.zeros(T.n)
    r = b.copy()
    residuals = [1.0]
    matvecs = applies = replacements = 0
    floor_scale = np.finfo(float).eps * float(np.abs(T._kernel).sum()) / bnorm
    replaced = 1.0  # the true residual at the last replacement, 1 before the first

    def report(iterations: int, status: str, true_res: Optional[float] = None) -> SolveReport:
        applied = applies if M is not None else 0  # the unpreconditioned "apply" is a copy
        solution = None if true_res is None else x
        return SolveReport(
            iterations, tuple(residuals), status, solution, true_res, apply_path, matvecs, applied, replacements
        )

    def true_residual() -> tuple[np.ndarray, float]:
        nonlocal matvecs
        matvecs += 1
        res = b - toeplitz_matvec(T, x)
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
        q = toeplitz_matvec(T, d)
        matvecs += 1
        dq = float(d @ q)
        if not dq > 0.0:
            return report(it - 1, STATUS_OPERATOR_INDEFINITE)
        alpha = rho / dq
        x += alpha * d
        r -= alpha * q
        residuals.append(math.sqrt(r @ r) / bnorm)
        floor = floor_scale * math.sqrt(x @ x)
        if residuals[-1] <= (floor if floor > 10.0 * tol else tol):
            true_r, true_res = true_residual()
            if true_res <= tol:
                return report(it, STATUS_CONVERGED, true_res)
            if true_res > 0.5 * replaced:
                return report(it, STATUS_STAGNATED, true_res)
            r, replaced, restart = true_r, true_res, True
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BenchmarkCell:
    """One (n, p) solver run; p is None for the unpreconditioned column."""

    n: int
    p: Optional[float]
    report: SolveReport
    circulant_eigenvalues: Optional[np.ndarray] = None


@dataclass(frozen=True)
class BenchmarkResult:
    config: BenchmarkConfig
    cells: tuple[BenchmarkCell, ...]

    def cell(self, n: int, p: Optional[float]) -> BenchmarkCell:
        for c in self.cells:
            if c.n == n and c.p == p:
                return c
        raise KeyError(f"no cell for n={n}, p={p}")


def _bench_cell(
    symbol: ToeplitzSymbol,
    n: int,
    p: Optional[float],
    b: np.ndarray,
    config: BenchmarkConfig,
) -> BenchmarkCell:
    T = build_toeplitz(symbol, n)
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
    return BenchmarkCell(n, p, report, circulant_spectrum(C))


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
        cells += [_bench_cell(symbol, n, p, b, config) for p in config.p_list + (None,)]
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
