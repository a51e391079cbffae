"""Angles and orthogonality for discrete functions in lp geometry.

For p other than 2 the sequence space lp has no inner product, but a weaker
pairing can be built from the duality map f -> f*. This module computes that
pairing, the associated Pythagorean defect and angle, and an orthogonality
test, for real or complex sample sequences with a uniform quadrature weight.

The defect has a closed form worth keeping in mind: it always equals
``||f+g||_p^p - ||f||_p^p - ||g||_p^p``. At p = 2 this is twice the classical
inner product; at p = 1 it is the triangle-inequality slack, which is never
positive.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "DimensionMismatch",
    "DiscreteFunction",
    "PExponent",
    "GeometryResult",
    "dualize",
    "weak_inner_product",
    "pythagorean_defect",
    "angle",
    "is_orthogonal",
    "pair_geometry",
]

DEFAULT_ORTHO_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Raised when two functions do not live on the same sample grid."""


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """A finite sample sequence with a uniform quadrature weight.

    Attributes:
        values: real or complex samples, length >= 1, all finite.
        weight: weight applied to every sample when summing, a finite
            number > 0 (a bool is not; ValueError otherwise), stored as float.
    """

    values: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not np.issubdtype(vals.dtype, np.number):
            raise ValueError("values must be numeric")
        if np.iscomplexobj(vals):
            vals = vals.astype(np.complex128, copy=True)
        else:
            vals = vals.astype(np.float64, copy=True)
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite (no NaN or Inf)")
        weight = _positive("weight", self.weight)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weight", weight)

    def __len__(self) -> int:
        return self.values.size


FunctionLike = Union[DiscreteFunction, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class PExponent:
    """A Lebesgue exponent p >= 1 together with its conjugate q.

    1/p + 1/q = 1, with q = inf when p = 1. p must be a finite real number
    >= 1, and a bool is not one (ValueError otherwise).
    """

    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        p = self.p
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not (math.isfinite(p) and p >= 1.0):
            raise ValueError(f"exponent p must be a finite number >= 1, got {self.p!r}")
        p = float(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", math.inf if p == 1.0 else p / (p - 1.0))


ExponentLike = Union[PExponent, float, int]


def _positive(name: str, x: float) -> float:
    """x as a float; ValueError naming it unless x is a finite real number > 0 (a bool is not).

    The rule for every tolerance the package receives, as PExponent is for exponents.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {x!r}")
    return float(x)


def _number(key: str, x: object, kind: type = float) -> float:
    """x as kind, float or int; ValueError naming key unless x is a finite
    real number (a bool is not), of integral value when kind is int (2.0 gives 2)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x) or (kind is int and x != int(x)):
        raise ValueError(f"{key} must be a finite {kind.__name__}, got {x!r}")
    return kind(x)


def _as_function(f: FunctionLike) -> DiscreteFunction:
    if isinstance(f, DiscreteFunction):
        return f
    return DiscreteFunction(np.asarray(f))


def _as_exponent(p: ExponentLike) -> PExponent:
    if isinstance(p, PExponent):
        return p
    return PExponent(p)


def _check_compatible(f: DiscreteFunction, g: DiscreteFunction) -> None:
    if len(f) != len(g):
        raise DimensionMismatch(f"length mismatch: {len(f)} vs {len(g)}")
    if f.weight != g.weight:
        raise DimensionMismatch(f"weight mismatch: {f.weight} vs {g.weight}")


@dataclass(frozen=True)
class GeometryResult:
    """Everything the pairing says about one (f, g) pair.

    defect equals 2 * weak_inner_product by algebra, and it is also
    cot(angle): the angle convention drops the 1/2 prefactor.
    """

    weak_inner_product: float
    angle: float
    defect: float


def dualize(f: FunctionLike, p: ExponentLike) -> DiscreteFunction:
    """Apply the lp duality map to f.

    Real samples map to sign(f) |f|^(p-1); complex samples to
    f |f|^(p-2) with 0 kept at 0. For p = 1 this is the (unimodular) sign,
    for p = 2 the identity, and in all cases
    sum(w * f * conj(f*)) = ||f||_p^p.
    """
    fn = _as_function(f)
    return DiscreteFunction(_dual(fn.values, _as_exponent(p).p), fn.weight)


# The pairing works on raw sample arrays: the public functions validate
# their operands once (_operands) and build no DiscreteFunction inside.


def _dual(v: np.ndarray, p: float) -> np.ndarray:
    """The duality map of dualize on raw samples, checked finite."""
    mag = np.abs(v)
    if np.iscomplexobj(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0)
        dual = phase * mag ** (p - 1.0)
    else:
        dual = np.sign(v) * mag ** (p - 1.0)
    return _finite(dual)


def _finite(v: np.ndarray) -> np.ndarray:
    """v itself; ValueError, as DiscreteFunction raises, when it holds NaN or Inf.

    A finite sum proves every entry finite; only a sum that is not (an
    overflow, or a NaN or Inf inside) needs the entrywise test.
    """
    if not cmath.isfinite(v.sum()) and not np.isfinite(v).all():
        raise ValueError("values must be finite (no NaN or Inf)")
    return v


def _operands(
    f: FunctionLike, g: FunctionLike, p: ExponentLike
) -> tuple[DiscreteFunction, DiscreteFunction, float, np.ndarray]:
    """f and g validated and on one grid, the exponent, and the samples of f+g.

    Raises DimensionMismatch for different grids and ValueError when f+g
    overflows to a non-finite value.
    """
    fn, gn = _as_function(f), _as_function(g)
    _check_compatible(fn, gn)
    return fn, gn, _as_exponent(p).p, _finite(fn.values + gn.values)


def _pair(u: np.ndarray, v: np.ndarray, weight: float) -> float:
    """Weighted pairing sum(w * u * conj(v)), real part."""
    return float(weight * (u * (v.conj() if np.iscomplexobj(v) else v)).real.sum())


def _norm_power(v: np.ndarray, weight: float, p: float) -> float:
    return float(weight * (np.abs(v) ** p).sum())


def _weak_inner_product(f: np.ndarray, g: np.ndarray, s: np.ndarray, weight: float, p: float) -> float:
    h = _dual(s, p)
    return 0.5 * (_pair(f, h - _dual(f, p), weight) + _pair(g, h - _dual(g, p), weight))


def _defect(f: np.ndarray, g: np.ndarray, s: np.ndarray, weight: float, p: float) -> float:
    return _norm_power(s, weight, p) - _norm_power(f, weight, p) - _norm_power(g, weight, p)


def weak_inner_product(f: FunctionLike, g: FunctionLike, p: ExponentLike) -> float:
    """The duality-map pairing of f and g, with the 1/2 prefactor.

    Computed as
    1/2 * sum(w * Re[f conj(h - f*) + g conj(h - g*)]) with h = (f+g)*.
    At p = 2 this is the classical inner product; at p = 1 it equals
    (||f+g||_1 - ||f||_1 - ||g||_1) / 2.
    """
    fn, gn, pv, s = _operands(f, g, p)
    return _weak_inner_product(fn.values, gn.values, s, fn.weight, pv)


def pythagorean_defect(f: FunctionLike, g: FunctionLike, p: ExponentLike) -> float:
    """Pairing of f+g against its own dual, minus the same for f and g alone.

    Each pairing of a function with its dual is its p-th norm power, so this
    is computed as ||f+g||_p^p - ||f||_p^p - ||g||_p^p without building any
    duality map. Zero exactly when f and g are orthogonal in the weak sense;
    for p = 1 it is never positive.
    """
    fn, gn, pv, s = _operands(f, g, p)
    return _defect(fn.values, gn.values, s, fn.weight, pv)


def angle(f: FunctionLike, g: FunctionLike, p: ExponentLike) -> float:
    """Generalized angle between f and g, in (0, pi).

    arccot of the defect on the branch where arccot(0) = pi/2; the
    convention uses the pairing without the 1/2 prefactor, so
    cot(angle) = defect. Monotone decreasing in the defect.
    """
    return math.atan2(1.0, pythagorean_defect(f, g, p))


def is_orthogonal(
    f: FunctionLike,
    g: FunctionLike,
    p: ExponentLike,
    tol: float = DEFAULT_ORTHO_TOL,
) -> bool:
    """True when the weak inner product vanishes to within tol.

    The threshold is hybrid relative/absolute:
    |wip| <= tol * max(1, ||f||_p^p, ||g||_p^p); tol must be a finite number > 0.
    """
    tol = _positive("tol", tol)
    fn, gn, pv, s = _operands(f, g, p)
    wip = _weak_inner_product(fn.values, gn.values, s, fn.weight, pv)
    scale = max(1.0, _norm_power(fn.values, fn.weight, pv), _norm_power(gn.values, gn.weight, pv))
    return abs(wip) <= tol * scale


def pair_geometry(f: FunctionLike, g: FunctionLike, p: ExponentLike) -> GeometryResult:
    """Weak inner product, defect, and angle of one pair in a single record."""
    fn, gn, pv, s = _operands(f, g, p)
    wip = _weak_inner_product(fn.values, gn.values, s, fn.weight, pv)
    defect = _defect(fn.values, gn.values, s, fn.weight, pv)
    return GeometryResult(
        weak_inner_product=wip,
        angle=math.atan2(1.0, defect),
        defect=defect,
    )
