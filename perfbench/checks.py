"""Correctness checks for the benchmark, computed apart from lportho.

Nothing here imports lportho. Every expected value is rebuilt from the
problem definition with numpy and scipy alone: the paper's reference
iteration tables, closed-form circulant spectra summed as cosines, a banded
stencil for Toeplitz residuals, and L1 Fourier energies from a real FFT
with Hermitian weights (the program uses a complex FFT). Each check raises
CheckFailed with a message naming what went wrong.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.fft

P_GRID = (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)
N_GRID = (100, 400, 700, 1000)
GENTLE = (1.0, 2.0, 3.0)
STIFF = (0.0, 2.0, 8.0)

# The paper's iteration table for the gentle symbol, all-ones right-hand
# side, rows n = 100, 400, 700, 1000; None is the unpreconditioned column.
GENTLE_REFERENCE = {
    1.0: (3, 3, 3, 3),
    1.4: (4, 4, 4, 4),
    1.6: (5, 4, 4, 4),
    1.8: (6, 5, 5, 5),
    3.0: (17, 13, 11, 10),
    5.0: (28, 23, 22, 21),
    10.0: (36, 32, 31, 31),
    None: (50, 74, 73, 73),
}
STIFF_REFERENCE_P16 = (11, 13, 13, 15)

# Rounding allowances. Spectra are compared to a cosine sum; energies to a
# second FFT; the conservation gap and the unwanted-frequency rule use the
# program's documented tolerances.
SPECTRUM_RTOL = 1e-10
ENERGY_RTOL = 1e-12
COMPARISON_RTOL = 1e-11  # of the largest bin: a complex FFT against an rfft, per bin
CONSERVATION_RTOL = 1e-10
RECONSTRUCTION_RTOL = 1e-10
OSCILLATION_RTOL = 1e-12
ANGLE_RTOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


class StatusDishonest(CheckFailed):
    """A solver status that its true residual contradicts: the op failed."""


def require(condition: bool, message: str, failure: type = CheckFailed) -> None:
    if not condition:
        raise failure(message)


# ---------------------------------------------------------------------------
# Toeplitz tables, spectra and residuals


def model_diagonals(params: tuple[float, float, float]) -> tuple[float, float, float]:
    """(t_0, t_1, t_2) of alpha + beta(2-2cos) + gamma(2-2cos)^2."""
    alpha, beta, gamma = params
    return alpha + 2.0 * beta + 6.0 * gamma, -beta - 4.0 * gamma, gamma


def _class_value(a: float, k: int, n: int, p: float) -> float:
    """Minimizer of (n-k)|a - c|^p + k|c|^p over c, for 0 < k < n/2.

    Setting the derivative to zero gives |c| / |a - c| = ((n-k)/k)^(1/(p-1));
    at p = 1 the larger count wins, which is a itself.
    """
    if p == 1.0:
        return a
    return a / (1.0 + (k / (n - k)) ** (1.0 / (p - 1.0)))


def closed_form_spectrum(n: int, p: float, params: tuple[float, float, float]) -> np.ndarray:
    """Eigenvalues lambda_j = c_0 + 2 c_1 cos(theta_j) + 2 c_2 cos(2 theta_j).

    c_k is the entrywise-p-optimal value of circulant class k, which overlays
    the Toeplitz offset k (n-k entries) and the zero offset k-n (k entries).
    """
    if n < 5:
        raise ValueError("the closed form needs five distinct diagonal classes")
    t0, t1, t2 = model_diagonals(params)
    c1, c2 = _class_value(t1, 1, n, p), _class_value(t2, 2, n, p)
    theta = 2.0 * np.pi * np.arange(n) / n
    return t0 + 2.0 * c1 * np.cos(theta) + 2.0 * c2 * np.cos(2.0 * theta)


def expected_p_tilde(n: int, params: tuple[float, float, float], grid=P_GRID) -> float:
    """Smallest grid exponent whose closed-form spectrum is positive."""
    for p in grid:
        lam = closed_form_spectrum(n, p, params)
        if float(np.min(lam)) > 1e-12 * float(np.max(np.abs(lam))):
            return p
    raise CheckFailed(f"no exponent in {grid} gives a positive spectrum at n = {n}")


def banded_relative_residual(params: tuple[float, float, float], x: np.ndarray, b: np.ndarray) -> float:
    """||b - T x|| / ||b|| from the five-diagonal stencil, in extended precision."""
    t0, t1, t2 = (np.longdouble(v) for v in model_diagonals(params))
    xl = np.asarray(x, dtype=np.longdouble)
    r = np.asarray(b, dtype=np.longdouble) - t0 * xl
    r[1:] -= t1 * xl[:-1]
    r[:-1] -= t1 * xl[1:]
    r[2:] -= t2 * xl[:-2]
    r[:-2] -= t2 * xl[2:]
    return float(np.sqrt(np.sum(r * r)) / np.sqrt(np.sum(np.asarray(b, dtype=np.longdouble) ** 2)))


def check_status_honest(status: str, true_residual: float, tol: float) -> None:
    """A solver reports 'converged' exactly when the true residual meets tol."""
    if status == "converged":
        require(
            true_residual <= tol,
            f"status 'converged' but the true relative residual is {true_residual:.3e} > tol {tol:.0e}",
            StatusDishonest,
        )
    else:
        require(
            true_residual > tol,
            f"status {status!r} but the true relative residual {true_residual:.3e} meets tol {tol:.0e}",
            StatusDishonest,
        )


def parse_table_csv(text: str) -> dict[tuple[int, float | None], int | None]:
    """{(n, p): iterations or None for '#'}; p is None for the 'n. p.' column."""
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0][0] == "n", "table.csv has no 'n' header")
    cols: list[float | None] = []
    for label in rows[0][1:]:
        if label == "n. p.":
            cols.append(None)
        else:
            require(label.startswith("p="), f"unexpected table column {label!r}")
            cols.append(float(label[2:]))
    cells: dict[tuple[int, float | None], int | None] = {}
    for row in rows[1:]:
        require(len(row) == len(cols) + 1, f"table row of wrong width: {row}")
        for p, text_value in zip(cols, row[1:]):
            cells[(int(row[0]), p)] = None if text_value == "#" else int(text_value)
    return cells


def _grid_complete(cells: dict) -> None:
    want = {(n, p) for n in N_GRID for p in list(P_GRID) + [None]}
    require(set(cells) == want, f"table cells {sorted(set(cells) ^ want, key=str)} missing or extra")


def check_gentle_table(cells: dict) -> None:
    """Every column within the tolerances of the paper's gentle table; p = 1 in at most 5."""
    _grid_complete(cells)
    for p, refs in GENTLE_REFERENCE.items():
        for n, ref in zip(N_GRID, refs):
            got = cells[(n, p)]
            require(got is not None, f"gentle n={n} p={p}: '#' where the paper has {ref}")
            allowed = 0.20 * ref if p is None else max(2.0, 0.20 * ref)
            require(abs(got - ref) <= allowed, f"gentle n={n} p={p}: {got} iterations, paper {ref}")
    for n in N_GRID:
        require(cells[(n, 1.0)] <= 5, f"gentle n={n} p=1: {cells[(n, 1.0)]} iterations, more than 5")


def check_stiff_table(cells: dict) -> None:
    """p = 1.6 within tolerance, p = 1 and 1.4 fail, counts grow from 1.6 up."""
    _grid_complete(cells)
    for n, ref in zip(N_GRID, STIFF_REFERENCE_P16):
        for p in (1.0, 1.4):
            require(cells[(n, p)] is None, f"stiff n={n} p={p}: expected '#', got {cells[(n, p)]}")
        got = cells[(n, 1.6)]
        require(got is not None and abs(got - ref) <= max(3.0, 0.25 * ref), f"stiff n={n} p=1.6: {got}, paper {ref}")
        counts = [cells[(n, p)] for p in (1.6, 1.8, 3.0, 5.0, 10.0)]
        require(None not in counts, f"stiff n={n}: a p >= 1.6 cell failed: {counts}")
        require(all(b >= a for a, b in zip(counts, counts[1:])), f"stiff n={n}: counts decrease {counts}")


def check_spectrum_csv(text: str, n: int, p: float, params: tuple[float, float, float]) -> None:
    """A 'j,lambda' CSV matches the cosine-sum closed form."""
    rows = text.splitlines()
    require(rows and rows[0] == "j,lambda", f"spectrum n={n} p={p}: header {rows[:1]}")
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    require(data.shape == (n, 2), f"spectrum n={n} p={p}: shape {data.shape}")
    require(np.array_equal(data[:, 0], np.arange(n)), f"spectrum n={n} p={p}: indices out of order")
    want = closed_form_spectrum(n, p, params)
    err = float(np.max(np.abs(data[:, 1] - want)))
    require(err <= SPECTRUM_RTOL * float(np.max(np.abs(want))), f"spectrum n={n} p={p}: off by {err:.3e}")


# ---------------------------------------------------------------------------
# L1 Fourier energy audit


def rfft_magnitudes(samples: np.ndarray) -> np.ndarray:
    return np.abs(scipy.fft.rfft(np.asarray(samples, dtype=float)))


def hermitian_weights(n: int) -> np.ndarray:
    """Weights turning a length-n rfft into a sum over all n DFT bins."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def l1_energy(samples: np.ndarray) -> float:
    return float(hermitian_weights(len(samples)) @ rfft_magnitudes(samples))


def full_magnitudes(samples: np.ndarray) -> np.ndarray:
    """|DFT| at all n bins, unfolded from the rfft by conjugate symmetry."""
    n = len(samples)
    half = rfft_magnitudes(samples)
    return np.concatenate([half, half[1 : n - n // 2][::-1]])


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1.0)


def check_reconstruction(source: np.ndarray, parts: list[np.ndarray]) -> None:
    """The parts sum back to the source within 1e-10 relative l2."""
    total = np.sum(parts, axis=0)
    miss = float(np.linalg.norm(total - source))
    scale = float(np.linalg.norm(source))
    require(miss <= RECONSTRUCTION_RTOL * max(scale, 1.0), f"parts miss the source by {miss:.3e} (norm {scale:.3e})")


def check_energy_report(report: dict, source: np.ndarray, parts: list[np.ndarray]) -> None:
    """Reported energies, gap and unwanted bins agree with an rfft recount.

    report has the keys of lportho's energy_report.json.
    """
    check_reconstruction(source, parts)
    total = l1_energy(source)
    energies = [l1_energy(p) for p in parts]
    require(_close(report["total_energy"], total, ENERGY_RTOL), f"total energy {report['total_energy']!r}, recount {total!r}")
    got = list(report["component_energies"])
    require(len(got) == len(parts), f"{len(got)} part energies reported for {len(parts)} parts")
    for i, (e_got, e_want) in enumerate(zip(got, energies)):
        require(_close(e_got, e_want, ENERGY_RTOL), f"part {i} energy {e_got!r}, recount {e_want!r}")
    gap = sum(energies) - total
    require(abs(gap) <= CONSERVATION_RTOL * total, f"recounted conservation gap {gap:.3e} exceeds 1e-10 E1 = {total:.3e}")
    require(
        abs(report["conservation_gap"]) <= CONSERVATION_RTOL * total,
        f"reported conservation gap {report['conservation_gap']:.3e} exceeds 1e-10 E1",
    )
    require(report["conserved"] is True, "report says the energy is not conserved")
    require(list(report["unwanted_frequencies"]) == [], f"{len(report['unwanted_frequencies'])} unwanted frequencies reported")
    src_mag = rfft_magnitudes(source)
    excess = np.sum([rfft_magnitudes(p) for p in parts], axis=0) - src_mag
    allowance = OSCILLATION_RTOL * float(np.max(src_mag))
    require(float(np.max(excess)) <= allowance, f"part spectra exceed the source by {float(np.max(excess)):.3e}")


def check_spectrum_comparison(text: str, source: np.ndarray, parts: list[np.ndarray]) -> None:
    """spectrum_comparison.csv holds |s_hat| and sum_k |part_k_hat| per bin."""
    lines = text.splitlines()
    require(lines and lines[0] == "xi,signal_abs,components_abs_sum", f"comparison header {lines[:1]}")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    n = len(source)
    require(data.shape == (n, 3), f"comparison shape {data.shape}, want ({n}, 3)")
    require(np.array_equal(data[:, 0], np.arange(n)), "comparison bins out of order")
    want_src = full_magnitudes(source)
    want_sum = np.sum([full_magnitudes(p) for p in parts], axis=0)
    scale = float(np.max(want_src))
    for col, want, label in ((1, want_src, "signal_abs"), (2, want_sum, "components_abs_sum")):
        err = float(np.max(np.abs(data[:, col] - want)))
        require(err <= COMPARISON_RTOL * scale, f"{label} off by {err:.3e} (scale {scale:.3e})")


def check_reports_equal(printed: dict, written: dict) -> None:
    """The audit's printed report equals the report decompose wrote.

    The audit's source is the part sum, which differs from the original
    samples by rounding, so total_energy and conservation_gap may move by
    that much; every other field must be identical.
    """
    require(set(printed) == set(written), f"audit report keys {sorted(printed)}, decompose {sorted(written)}")
    for key in written:
        if key == "total_energy":
            same = _close(printed[key], written[key], ENERGY_RTOL)
        elif key == "conservation_gap":
            same = abs(printed[key] - written[key]) <= CONSERVATION_RTOL * written["total_energy"]
        else:
            same = printed[key] == written[key]
        require(same, f"audit reports {key} = {printed[key]!r}, decompose wrote {written[key]!r}")


# ---------------------------------------------------------------------------
# Angles


def check_angles(parts: list[np.ndarray], time_angles: np.ndarray, freq_angles: np.ndarray) -> None:
    """Both angle matrices equal atan2(1, d) for independently computed defects.

    d is the L1 Pythagorean defect ||f+g||_1 - ||f||_1 - ||g||_1, on samples
    for the time domain and on DFT coefficients (by rfft with Hermitian
    weights) for the frequency domain. Frequency-domain parts must also be
    L1-orthogonal: |cot| = |d| <= 1e-10 (E1(f) + E1(g)).
    """
    m = len(parts)
    for label, got in (("time", time_angles), ("frequency", freq_angles)):
        require(np.shape(got) == (m, m), f"{label} angle matrix has shape {np.shape(got)}, want ({m}, {m})")
    spectra = [scipy.fft.rfft(np.asarray(p, dtype=float)) for p in parts]
    w = hermitian_weights(len(parts[0]))
    for i in range(m):
        require(time_angles[i][i] == 0.0 and freq_angles[i][i] == 0.0, f"diagonal angle {i} is not 0")
        for j in range(i + 1, m):
            f, g = parts[i], parts[j]
            l1f, l1g = float(np.sum(np.abs(f))), float(np.sum(np.abs(g)))
            d_time = float(np.sum(np.abs(f + g))) - l1f - l1g
            got = float(time_angles[i][j])
            want = math.atan2(1.0, d_time)
            require(
                got == float(time_angles[j][i]) and abs(got - want) <= ANGLE_RTOL * (l1f + l1g),
                f"time angle ({i},{j}) {got!r}, defect gives {want!r}",
            )
            e_f, e_g = float(w @ np.abs(spectra[i])), float(w @ np.abs(spectra[j]))
            d_freq = float(w @ np.abs(spectra[i] + spectra[j])) - e_f - e_g
            require(abs(d_freq) <= CONSERVATION_RTOL * (e_f + e_g), f"parts {i},{j} not L1-orthogonal: cot = {d_freq:.3e}")
            got = float(freq_angles[i][j])
            want = math.atan2(1.0, d_freq)
            require(
                got == float(freq_angles[j][i]) and abs(got - want) <= ANGLE_RTOL * (e_f + e_g),
                f"frequency angle ({i},{j}) {got!r}, defect gives {want!r}",
            )
