"""L1 Fourier-energy accounting for additive signal decompositions.

A sampled signal lives on the grid t_j = j/(2B) with n = 2B samples, so the
integer frequencies 0..n-1 make the forward transform an ordinary DFT. The
L1 Fourier energy of a signal is the l1 norm of that transform. Samples are
real, so the energy audit, the decomposer and the frequency-domain angles
work on the n//2+1 bins of the rfft, each weighted by how often it occurs
among the n bins; no complex FFT is taken. The module verifies whether a
decomposition s = sum(components) + trend conserves this energy, locates
frequencies where component spectra over-count the signal (unwanted
oscillations, reported by the energy audit), and provides a spectral
iterative-filtering decomposer whose stages act by nonnegative
per-frequency factors, making conservation hold by construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._serialize import format_float, read_numbers, table_writer
from .banach_geometry import DiscreteFunction, _number, _positive, angle

__all__ = [
    "InconsistentDecomposition",
    "Signal",
    "Decomposition",
    "EnergyReport",
    "l1_fourier_energy",
    "check_energy_conservation",
    "fif_decompose",
    "pairwise_l1_angles",
    "chirp_plus_tone",
    "read_signal_csv",
    "write_signal_csv",
    "decomposition_to_dict",
    "decomposition_from_dict",
    "energy_report_to_dict",
]

log = logging.getLogger("lportho")

RECONSTRUCTION_RTOL = 1e-10
OSCILLATION_RTOL = 1e-12


class InconsistentDecomposition(ValueError):
    """Components plus trend do not reconstruct the source signal."""


@dataclass(frozen=True)
class Signal:
    """Real samples on the uniform grid t_j = j/(2B), j = 0..n-1.

    The bandwidth pins the grid through n = 2B, so B defaults to n/2 and
    any explicitly supplied value must agree with it.
    """

    samples: np.ndarray
    bandwidth: float = 0.0  # 0 means "derive from the sample count"

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be 1-d")
        n = arr.size
        if n < 2 or n % 2 != 0:
            raise ValueError(f"sample count must be even and >= 2, got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        b = float(self.bandwidth) if self.bandwidth else n / 2.0
        if b <= 0 or 2.0 * b != float(n):
            raise ValueError(f"bandwidth {b} incompatible with n = {n} (need n = 2B)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "bandwidth", b)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) / (2.0 * self.bandwidth)


def _hermitian_weights(bins: int) -> np.ndarray:
    """How often each of the n//2+1 rfft bins of a real signal of even
    length n occurs among its n DFT bins: once at DC and Nyquist, twice
    elsewhere (bin k stands for k and n-k by conjugate symmetry)."""
    w = np.full(bins, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _l1_energy(half_mags: np.ndarray) -> float:
    """E1 from the rfft magnitudes of a real signal of even length."""
    return float(np.sum(_hermitian_weights(half_mags.size) * half_mags))


def _unfold(half: np.ndarray) -> np.ndarray:
    """Values at the n//2+1 rfft bins extended to all n bins: bin n-k gets bin k's."""
    return np.concatenate([half, half[-2:0:-1]])


def l1_fourier_energy(s: Signal) -> float:
    """E1(s): the l1 norm of the DFT coefficient magnitudes.

    Summed over the n//2+1 rfft bins with Hermitian weights (1 at DC and
    Nyquist, 2 elsewhere), which is the sum over all n bins.
    """
    return _l1_energy(np.abs(np.fft.rfft(s.samples)))


@dataclass(frozen=True)
class Decomposition:
    """An ordered additive split of a source signal into components + trend."""

    components: tuple[Signal, ...]
    trend: Signal
    source: Signal
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        n = self.trend.n
        for c in comps:
            if c.n != n:
                raise ValueError("all components and the trend must share one length")
        if self.source.n != n:
            raise ValueError("source length differs from component length")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_parts(
        cls,
        components: Iterable[Signal | Sequence[float]],
        trend: Signal | Sequence[float],
        meta: dict | None = None,
    ) -> "Decomposition":
        """Build a decomposition whose source is defined as the part sum.

        This is the audit-mode constructor for externally supplied splits:
        reconstruction holds by definition, energy conservation may not.
        """
        comps = tuple(c if isinstance(c, Signal) else Signal(np.asarray(c, dtype=float)) for c in components)
        tr = trend if isinstance(trend, Signal) else Signal(np.asarray(trend, dtype=float))
        total = tr.samples.copy()
        for c in comps:
            total += c.samples
        return cls(comps, tr, Signal(total), dict(meta or {}))

    @property
    def parts(self) -> tuple[Signal, ...]:
        """Components followed by the trend (the trend counts as a component
        in all energy accounting)."""
        return self.components + (self.trend,)


@dataclass(frozen=True)
class EnergyReport:
    """Energy bookkeeping of one decomposition.

    conservation_gap = sum(component_energies) - total_energy; the trend's
    energy is included among component_energies (last entry). signal_abs
    is |s_hat(xi)| and components_abs_sum is sum_k |phi_k_hat(xi)| (trend
    included) at every frequency xi: the spectra the energies and the
    unwanted frequencies were computed from. unwanted_frequencies holds a
    (frequency index, excess) pair for every xi where components_abs_sum
    exceeds signal_abs by more than 1e-12 * max(signal_abs).
    """

    total_energy: float
    component_energies: tuple[float, ...]
    conservation_gap: float
    conserved: bool
    tol: float
    unwanted_frequencies: tuple[tuple[int, float], ...]
    signal_abs: np.ndarray = field(repr=False, compare=False)
    components_abs_sum: np.ndarray = field(repr=False, compare=False)


def _verify_reconstruction(d: Decomposition) -> None:
    total = d.trend.samples.copy()
    for c in d.components:
        total = total + c.samples
    diff = float(np.linalg.norm(total - d.source.samples))
    scale = float(np.linalg.norm(d.source.samples))
    if diff > RECONSTRUCTION_RTOL * max(scale, 1.0):
        raise InconsistentDecomposition(
            f"components + trend miss the source by {diff:.3e} (l2, source norm {scale:.3e})"
        )


def _spectral_magnitudes(d: Decomposition) -> tuple[np.ndarray, list[float], np.ndarray]:
    """|s_hat| at all n bins, the L1 energies of the source and of each part
    (source first), and sum_k |phi_k_hat| over the parts at all n bins.

    One batched rfft over the source and the parts gives their n//2+1 bins;
    each row equals the 1-d rfft of its signal, so an energy here is the one
    l1_fourier_energy gives, bit for bit. The two spectra are unfolded to n
    bins by conjugate symmetry, |x_hat(n-k)| = |x_hat(k)|.
    """
    mags = np.abs(np.fft.rfft(np.stack([d.source.samples] + [p.samples for p in d.parts])))
    energies = [_l1_energy(row) for row in mags]
    summed = np.zeros_like(mags[0])
    for row in mags[1:]:
        summed += row
    shat, summed = _unfold(mags[0]), _unfold(summed)
    shat.setflags(write=False)
    summed.setflags(write=False)
    return shat, energies, summed


def check_energy_conservation(d: Decomposition, tol: float = 1e-10) -> EnergyReport:
    """Compare the source's L1 Fourier energy against the parts' total.

    Raises InconsistentDecomposition when the parts do not sum back to the
    source; otherwise reports per-part energies, the conservation gap, the
    conserved flag |gap| <= tol * E1(source), any unwanted oscillations,
    and the two spectra they come from. One batched rfft serves all of it:
    each energy sums its n//2+1 bins with Hermitian weights, as
    l1_fourier_energy does, and the spectra are reported at all n bins.
    tol must be a finite number > 0.
    """
    tol = _positive("tol", tol)
    _verify_reconstruction(d)
    shat, energies, summed = _spectral_magnitudes(d)
    total, part_energies = energies[0], tuple(energies[1:])
    gap = float(sum(part_energies) - total)
    excess = summed - shat
    hits = np.nonzero(excess > OSCILLATION_RTOL * float(np.max(shat)))[0]
    return EnergyReport(
        total_energy=total,
        component_energies=part_energies,
        conservation_gap=gap,
        conserved=abs(gap) <= tol * total if total > 0 else gap == 0.0,
        tol=tol,
        unwanted_frequencies=tuple((int(k), float(excess[k])) for k in hits),
        signal_abs=shat,
        components_abs_sum=summed,
    )


def _moving_average_transfer(n: int, halfwidth: int) -> np.ndarray:
    """Transfer of the symmetric moving-average filter at the n//2+1 rfft bins.

    The filter puts weight 1/(2L+1) on offsets -L..L; its transfer is the
    real Dirichlet-type kernel (1 + 2 sum_{j<=L} cos(2 pi jk/n))/(2L+1).
    The kernel is transformed as ones and the transfer divided by 2L+1,
    so the DC bin is the exact integer sum and the DC gain is exactly 1.
    """
    kernel = np.zeros(n)
    kernel[: halfwidth + 1] = 1.0
    kernel[n - halfwidth:] = 1.0
    return np.fft.rfft(kernel).real / (2 * halfwidth + 1)


def _filter_stage(
    rhat: np.ndarray, tau: np.ndarray, damp: np.ndarray, delta: float, max_inner: int
) -> tuple[np.ndarray, int, float]:
    """A stage's iterate damp^N rhat, its pass count N and the ratio at pass N.

    rhat, tau and damp hold the n//2+1 rfft bins of a real signal. Pass N
    compares damp^N r against damp^(N-1) r, so its relative l2 change over
    all n bins is ratio(N) = sqrt(sum(tau^2 g) / sum(g)) with weights
    g = w damp^(2N-2) |r|^2, w the Hermitian weights: a weighted mean of
    tau^2 whose weights shift toward small tau as N grows, hence
    nonincreasing in N. N is the first pass <= max_inner with
    ratio(N) <= delta, else max_inner, found by bisection. |r| is scaled by
    an exact power of two to a maximum in [1/2, 1) and the weights are held
    as logarithms shifted by their maximum, so the largest weight is 1 and
    neither N nor the ratio depends on the signal's amplitude. A pass at
    which every weight is 0 (an all-zero remainder, say) has ratio 0. The
    iterate is formed in closed form, rhat * damp**N.
    """
    mag = np.abs(rhat)
    mag = np.ldexp(mag, -np.frexp(np.max(mag))[1])
    with np.errstate(divide="ignore"):
        log_w = 2.0 * np.log(mag) + np.log(_hermitian_weights(mag.size))
        log_d2 = 2.0 * np.log(damp)
    tau2 = tau * tau

    def ratio(n: int) -> float:
        log_g = log_w if n == 1 else log_w + (n - 1) * log_d2
        top = np.max(log_g)
        if top == -np.inf:
            return 0.0
        g = np.exp(log_g - top)
        # np.sum, not a BLAS dot: the ratio must not depend on the BLAS thread count
        return math.sqrt(float(np.sum(tau2 * g)) / float(np.sum(g)))

    n_used, ach = max_inner, ratio(max_inner)
    if ach <= delta:
        lo = 1
        while lo < n_used:
            mid = (lo + n_used) // 2
            r = ratio(mid)
            if r <= delta:
                n_used, ach = mid, r
            else:
                lo = mid + 1
    return rhat * damp**n_used, n_used, ach


def fif_decompose(
    s: Signal,
    filter_halfwidths: Sequence[int],
    delta: float = 1e-3,
    max_inner: int = 200,
) -> Decomposition:
    """Split a signal by iterated spectral filtering, one stage per halfwidth.

    The work runs on the n//2+1 rfft bins of the real signal. Each stage
    builds a moving-average filter, squares its transfer (the
    double-convolution step, giving factors tau in [0, 1]), and repeatedly
    applies the high-pass complement to the running remainder: the inner
    iterate after N passes is (1 - tau)^N * remainder_hat. N is the first
    pass whose relative l2 change ||m_N - m_(N-1)|| / ||m_(N-1)|| over all
    n bins drops to delta, capped at max_inner. The iterate is a closed
    form in N, and so is that ratio: a mean over the rfft bins with
    Hermitian weights (1 at DC and Nyquist, 2 elsewhere), evaluated on
    weights normalised by a power of two and shifted by their maximum, so
    it does not depend on the signal's amplitude: scaling s by 2^k leaves meta unchanged and scales every part
    by 2^k. N is found by bisection on that ratio, achieved_delta is the
    ratio at N, and the iterate is formed as remainder_hat * (1 - tau)**N.
    A stage that hits the cap is recorded in meta and logged as a warning
    on the "lportho" logger, not raised. The stabilized iterate is
    extracted as a component by irfft, the rest moves on, and the final
    remainder is the trend. delta must be a finite number > 0, max_inner
    an integral number >= 1 and each halfwidth an integral number >= 1
    (ValueError naming it otherwise, before any work).

    Because every stage scales each frequency by a factor in [0, 1] and the
    factors telescope to a partition of unity, the output conserves the L1
    Fourier energy and produces no unwanted oscillations up to rounding.
    """
    hws = [_number("halfwidths entry", h, int) for h in filter_halfwidths]
    if not hws:
        raise ValueError("need at least one filter halfwidth")
    if any(h <= 0 for h in hws):
        raise ValueError("halfwidths must be positive")
    if any(b <= a for a, b in zip(hws, hws[1:])):
        raise ValueError("halfwidths must be strictly increasing")
    if any(h >= s.n / 2 for h in hws):
        raise ValueError(f"halfwidths must be < n/2 = {s.n / 2}")
    delta = _positive("delta", delta)
    max_inner = _number("max_inner", max_inner, int)
    if max_inner < 1:
        raise ValueError("max_inner must be >= 1")

    rhat = np.fft.rfft(s.samples)
    components: list[Signal] = []
    inner_counts: list[int] = []
    achieved: list[float] = []
    converged: list[bool] = []

    for hw in hws:
        tau = np.clip(_moving_average_transfer(s.n, hw) ** 2, 0.0, 1.0)
        damp = 1.0 - tau
        phihat, n_used, ach = _filter_stage(rhat, tau, damp, delta, max_inner)
        if ach > delta:
            log.warning(
                "fif_decompose: stage with halfwidth %d stopped at max_inner = %d with relative change %.3g > delta = %.3g",
                hw, max_inner, ach, delta,
            )
        rhat = rhat - phihat
        components.append(Signal(np.fft.irfft(phihat, s.n)))
        inner_counts.append(n_used)
        achieved.append(ach)
        converged.append(ach <= delta)

    trend = Signal(np.fft.irfft(rhat, s.n))
    meta = {
        "halfwidths": hws,
        "delta": delta,
        "max_inner": max_inner,
        "inner_iterations": inner_counts,
        "achieved_delta": achieved,
        "converged": converged,
    }
    return Decomposition(tuple(components), trend, s, meta)


def pairwise_l1_angles(d: Decomposition, domain: str = "time") -> np.ndarray:
    """Matrix of generalized L1 angles between all parts of a decomposition.

    Rows/columns run over components then the trend. domain selects whether
    the angle is computed on time samples or on the DFT coefficients;
    diagonal entries are defined as 0. The frequency domain takes one
    batched rfft of the parts and scales its n//2+1 bins by the Hermitian
    weights: at p = 1 every norm in the defect is a weighted sum of
    magnitudes, so the angle on the weighted bins is the angle over all n.
    """
    if domain not in ("time", "frequency"):
        raise ValueError(f"domain must be 'time' or 'frequency', got {domain!r}")
    rows = [p.samples for p in d.parts]
    if domain == "frequency":
        spectra = np.fft.rfft(np.stack(rows))
        rows = spectra * _hermitian_weights(spectra.shape[1])
    vecs = [DiscreteFunction(r) for r in rows]
    m = len(vecs)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            a = angle(vecs[i], vecs[j], 1)
            out[i, j] = a
            out[j, i] = a
    return out


def chirp_plus_tone(
    n: int,
    tone_freq: float | None = None,
    chirp_start: float | None = None,
    chirp_end: float | None = None,
) -> Signal:
    """A low tone plus a linear chirp sweeping a higher band, on n samples.

    Defaults scale with n so the two pieces stay spectrally separated:
    tone at ~n/50, chirp sweeping ~n/10 to ~n/5 over the unit interval.
    """
    if tone_freq is None:
        tone_freq = max(1.0, n / 50.0)
    if chirp_start is None:
        chirp_start = n / 10.0
    if chirp_end is None:
        chirp_end = n / 5.0
    t = np.arange(n) / n
    tone = np.cos(2.0 * np.pi * tone_freq * t)
    chirp = np.cos(2.0 * np.pi * (chirp_start * t + 0.5 * (chirp_end - chirp_start) * t * t))
    return Signal(tone + chirp)


def read_signal_csv(path: str) -> Signal:
    """Load a signal from CSV: one sample per line, optional '# B=<value>'."""
    samples, comments = read_numbers(path)
    bandwidth = 0.0
    for body in comments:
        if body.upper().startswith("B="):
            bandwidth = float(body[2:])
    return Signal(samples, bandwidth)


def write_signal_csv(path: str, s: Signal) -> None:
    write = table_writer(f"# B={format_float(s.bandwidth)}\n", "%.17g\n", s.samples)
    with open(path, "w", encoding="utf-8") as fh:
        write(fh.write)


def decomposition_to_dict(d: Decomposition) -> dict:
    """The JSON layout of d: components and trend are its (read-only)
    float64 sample arrays, which json_writer writes as number lists."""
    return {
        "components": [c.samples for c in d.components],
        "trend": d.trend.samples,
        "meta": d.meta,
    }


def decomposition_from_dict(doc: dict) -> Decomposition:
    """Rebuild a decomposition from its JSON form.

    The source is taken to be the part sum, which is what an external
    audit can verify; meta is carried through untouched. A field of the
    wrong JSON type is a ValueError naming it: components must be a list
    of number lists, trend a number list and meta, when present, an object.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"decomposition JSON must be a JSON object, got {type(doc).__name__}")
    if "components" not in doc or "trend" not in doc:
        raise ValueError("decomposition JSON needs 'components' and 'trend'")
    components, meta = doc["components"], doc.get("meta", {})
    if not isinstance(components, (list, tuple)):
        raise ValueError(f"decomposition JSON 'components' must be a list of number lists, got {components!r:.40}")
    if not isinstance(meta, dict):
        raise ValueError(f"decomposition JSON 'meta' must be an object, got {meta!r:.40}")
    # Each part becomes a Signal as soon as it is read, so one intermediate
    # array at a time is held next to the parsed lists.
    return Decomposition.from_parts(
        [Signal(_number_list("components", c)) for c in components], Signal(_number_list("trend", doc["trend"])), meta
    )


def _number_list(key: str, x: object) -> np.ndarray:
    """x as a 1-d float array; ValueError naming key unless it is a list of numbers."""
    try:
        arr = np.asarray(x) if isinstance(x, (list, tuple, np.ndarray)) else None
    except ValueError:  # lists nested to uneven depths
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        what = "a list of number lists" if key == "components" else "a number list"
        raise ValueError(f"decomposition JSON '{key}' must be {what}, got {x!r:.40}")
    return arr.astype(float, copy=False)


def energy_report_to_dict(r: EnergyReport) -> dict:
    return {
        "total_energy": r.total_energy,
        "component_energies": list(r.component_energies),
        "conservation_gap": r.conservation_gap,
        "conserved": r.conserved,
        "tol": r.tol,
        "unwanted_frequencies": [[k, e] for k, e in r.unwanted_frequencies],
    }
