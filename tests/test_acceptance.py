"""End-to-end acceptance gate for the package.

One test per shipped claim, each at its stated tolerance and runtime
budget. Oracles are computed here, independently of the library code:
a golden-section scalar search (run in extended precision so comparison
noise near flat minima stays far below the agreement bar) and
definitional diagonal-class means for the Frobenius projection.
"""

import math
import time

import numpy as np
import pytest

from lportho.banach_geometry import pythagorean_defect, weak_inner_product
from lportho.signal_decomposition import (
    Signal,
    check_energy_conservation,
    chirp_plus_tone,
    fif_decompose,
    l1_fourier_energy,
)
from lportho.toeplitz_preconditioning import (
    BenchmarkConfig,
    ToeplitzSymbol,
    build_toeplitz,
    lp_circulant_minimizer,
    lp_matrix_norm,
    model_spectrum_closed_form,
    preconditioned_spectrum_diagnostic,
    run_benchmark,
    select_p_tilde,
)

MODEL_PARAMS = [(1.0, 2.0, 3.0), (0.0, 2.0, 8.0), (0.0, 1.0, 0.0)]
SIZES = [10, 100, 1000]
EXPONENTS = [1.0, 1.4, 1.6, 1.8, 2.0, 3.0, 5.0, 10.0]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(fun, lo, hi, iters=160):
    a, b = np.longdouble(lo), np.longdouble(hi)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = fun(d)
    return float((a + b) / 2)


def class_minimizer_oracle(n, k, t_pos, t_neg, p):
    if t_pos == t_neg:
        return t_pos
    w_pos, w_neg = np.longdouble(n - k), np.longdouble(k)
    a, b, q = np.longdouble(t_pos), np.longdouble(t_neg), np.longdouble(p)

    def objective(c):
        return w_pos * np.abs(a - c) ** q + w_neg * np.abs(b - c) ** q

    return golden_section_min(objective, min(t_pos, t_neg), max(t_pos, t_neg))


def frobenius_class_means(dense):
    n = dense.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    sums = np.bincount(idx.ravel(), weights=dense.ravel(), minlength=n)
    return sums / n


def test_criterion_01_l1_pythagorean_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 257))
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        closed = 0.5 * (np.abs(f + g).sum() - np.abs(f).sum() - np.abs(g).sum())
        scale = max(1.0, np.abs(f).sum(), np.abs(g).sum())
        assert abs(weak_inner_product(f, g, 1) - closed) <= 1e-12 * scale
        for p in (1.0, 1.5, 2.0, 3.0):
            d = pythagorean_defect(f, g, p)
            w = weak_inner_product(f, g, p)
            p_scale = max(
                1.0, np.sum(np.abs(f) ** p), np.sum(np.abs(g) ** p)
            )
            assert abs(d - 2.0 * w) <= 1e-12 * p_scale
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"


def test_criterion_02_l2_weak_inner_product_is_dot():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        n = int(rng.integers(1, 257))
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        scale = max(1.0, np.sum(f * f), np.sum(g * g))
        assert abs(weak_inner_product(f, g, 2) - np.dot(f, g)) <= 1e-12 * scale


def test_criterion_03_energy_conservation_of_decompositions():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    signals = []
    for _ in range(50):
        n = int(rng.choice([128, 256, 500]))
        signals.append(Signal(rng.standard_normal(n)))
    signals.append(chirp_plus_tone(500))
    for s in signals:
        limit = s.n // 2
        count = int(rng.integers(1, 4))
        halfwidths = sorted(
            int(v) for v in rng.choice(np.arange(2, limit), size=count, replace=False)
        )
        d = fif_decompose(s, halfwidths)
        report = check_energy_conservation(d)
        assert abs(report.conservation_gap) <= 1e-10 * report.total_energy
        assert report.conserved
        assert report.unwanted_frequencies == ()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s, budget 10s"


def test_criterion_04_decomposition_is_schedule_dependent():
    rng = np.random.default_rng(2027)
    s = Signal(rng.standard_normal(256))
    d_narrow = fif_decompose(s, [2])
    d_wide = fif_decompose(s, [5])
    for d in (d_narrow, d_wide):
        assert check_energy_conservation(d).conserved
    dist = np.linalg.norm(d_narrow.components[0].samples - d_wide.components[0].samples)
    assert dist > 1e-3 * np.linalg.norm(s.samples)


def test_criterion_05_minimizer_matches_golden_section_search():
    for params in MODEL_PARAMS:
        symbol = ToeplitzSymbol.from_model(*params)
        for n in SIZES:
            T = build_toeplitz(symbol, n)
            diag = T.diagonals
            dense_t = T.to_dense()
            frob_oracle = frobenius_class_means(dense_t)
            for p in EXPONENTS:
                col = np.real(lp_circulant_minimizer(T, p).first_column)
                for k in range(n):
                    t_pos = float(diag.get(k, 0.0))
                    t_neg = float(diag.get(k - n, 0.0))
                    if t_pos == t_neg == 0.0:
                        assert col[k] == 0.0
                        continue
                    want = class_minimizer_oracle(n, k, t_pos, t_neg, p)
                    assert abs(col[k] - want) <= 1e-8, (params, n, p, k)
                if p == 2.0:
                    np.testing.assert_allclose(col, frob_oracle, atol=1e-12)
                    dense_c = lp_circulant_minimizer(T, p).to_dense()
                    total = lp_matrix_norm(dense_t, 2) ** 2
                    split = (
                        lp_matrix_norm(dense_t - dense_c, 2) ** 2
                        + lp_matrix_norm(dense_c, 2) ** 2
                    )
                    assert abs(total - split) <= 1e-10 * max(total, 1.0)


def test_criterion_06_closed_form_spectrum_matches_dft():
    for params in MODEL_PARAMS:
        symbol = ToeplitzSymbol.from_model(*params)
        for n in SIZES:
            T = build_toeplitz(symbol, n)
            for p in EXPONENTS:
                C = lp_circulant_minimizer(T, p)
                by_dft = np.fft.rfft(C.first_column)  # lambda_0..lambda_(n//2)
                assert float(np.max(np.abs(np.imag(by_dft)))) <= 1e-10
                closed = model_spectrum_closed_form(C, *params)
                assert float(np.max(np.abs(np.real(by_dft) - closed))) <= 1e-10


# Reference iteration counts for the gentle model family (alpha, beta,
# gamma) = (1, 2, 3) under all-ones right-hand sides, rows n = 100, 400,
# 700, 1000. The last row is the unpreconditioned solver.
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

N_LIST = (100, 400, 700, 1000)


def test_criterion_07_gentle_model_iteration_table():
    start = time.perf_counter()
    config = BenchmarkConfig(
        1.0, 2.0, 3.0, N_LIST, (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)
    )
    result = run_benchmark(config)
    for p, refs in GENTLE_REFERENCE.items():
        for n, ref in zip(N_LIST, refs):
            report = result.cell(n, p).report
            assert report.status == "converged", (n, p, report.status)
            got = report.iterations
            if p is None:
                assert abs(got - ref) <= 0.20 * ref, (n, "np", got, ref)
            else:
                assert abs(got - ref) <= max(2.0, 0.20 * ref), (n, p, got, ref)
    for n in N_LIST:
        assert result.cell(n, 1.0).report.iterations <= 5
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.2f}s, budget 60s"


STIFF_REFERENCE_P16 = (11, 13, 13, 15)


def test_criterion_08_stiff_model_iteration_table():
    config = BenchmarkConfig(
        0.0, 2.0, 8.0, N_LIST, (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)
    )
    result = run_benchmark(config)
    for n in N_LIST:
        for p in (1.0, 1.4):
            status = result.cell(n, p).report.status
            assert status in ("preconditioner_singular", "preconditioner_indefinite"), (n, p, status)
        got = result.cell(n, 1.6).report.iterations
        ref = STIFF_REFERENCE_P16[N_LIST.index(n)]
        assert result.cell(n, 1.6).report.status == "converged"
        assert abs(got - ref) <= max(3.0, 0.25 * ref), (n, got, ref)
        counts = [result.cell(n, p).report.iterations for p in (1.6, 1.8, 3.0, 5.0, 10.0)]
        assert all(b >= a for a, b in zip(counts, counts[1:])), (n, counts)


def test_criterion_09_exponent_selector():
    grid = [1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0]
    for n in (100, 400):
        gentle = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
        stiff = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), n)
        assert select_p_tilde(gentle, grid) == 1.0
        assert select_p_tilde(stiff, grid) == 1.6


def test_criterion_10_preconditioned_spectrum_clusters_at_one():
    fractions = []
    for n in (64, 128, 256):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
        C = lp_circulant_minimizer(T, 1)
        evals = preconditioned_spectrum_diagnostic(T, C).eigenvalues
        fractions.append(float(np.mean(np.abs(evals - 1.0) <= 0.1)))
    assert fractions[1] >= 0.9
    assert fractions[0] <= fractions[1] <= fractions[2]
