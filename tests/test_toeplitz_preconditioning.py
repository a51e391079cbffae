import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import lportho.toeplitz_preconditioning as tp
from lportho._serialize import dumps_json
from lportho.banach_geometry import PExponent
from lportho.toeplitz_preconditioning import (
    DEFAULT_PCG_TOL,
    DENSE_DIAGNOSTIC_LIMIT,
    BenchmarkConfig,
    CirculantMatrix,
    NoAdmissibleExponent,
    PreconditionerSingular,
    NotPositiveDefinite,
    SolveReport,
    ToeplitzOperator,
    ToeplitzSymbol,
    UncorrectableSpectrum,
    build_toeplitz,
    circulant_solve,
    circulant_spectrum,
    lp_circulant_minimizer,
    lp_matrix_norm,
    model_spectrum_closed_form,
    pcg_solve,
    preconditioned_spectrum_diagnostic,
    render_table_csv,
    render_table_markdown,
    run_benchmark,
    select_p_tilde,
    strang_type_correction,
    toeplitz_matvec,
)

# ---------------------------------------------------------------------------
# Oracles. Written against the definitions, not against the implementation:
# a golden-section scalar search for the per-class minimizers (carried out
# in extended precision so the comparison-driven search is not defeated by
# cancellation near very flat minima), the definitional diagonal-class
# means for the Frobenius projection, and dense linear algebra for matvec
# and solve checks.

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(fun, lo: float, hi: float, iters: int = 160) -> float:
    a = np.longdouble(lo)
    b = np.longdouble(hi)
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


def class_minimizer_oracle(n: int, k: int, t_pos: float, t_neg: float, p: float) -> float:
    if t_pos == t_neg:
        return t_pos
    w_pos = np.longdouble(n - k)
    w_neg = np.longdouble(k)
    a = np.longdouble(t_pos)
    b = np.longdouble(t_neg)

    def objective(c):
        return w_pos * np.abs(a - c) ** np.longdouble(p) + w_neg * np.abs(b - c) ** np.longdouble(p)

    lo, hi = min(t_pos, t_neg), max(t_pos, t_neg)
    return golden_section_min(objective, lo, hi)


def frobenius_class_means(dense: np.ndarray) -> np.ndarray:
    n = dense.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.array([dense[idx == k].mean() for k in range(n)])


def dense_from_diagonals(n: int, diagonals: dict) -> np.ndarray:
    col = np.array([diagonals.get(i, 0.0) for i in range(n)])
    row = np.array([diagonals.get(-j, 0.0) for j in range(n)])
    return scipy.linalg.toeplitz(col, row)


def symmetric_diagonals(rng, offsets) -> dict:
    """Standard normal t_k = t_(-k) at the given offsets k >= 0."""
    diagonals = {}
    for k in offsets:
        diagonals[k] = diagonals[-k] = float(rng.standard_normal())
    return diagonals


def random_symmetric_operator(rng, n: int, band: int | None = None) -> ToeplitzOperator:
    band = n - 1 if band is None else band
    return ToeplitzOperator(n, symmetric_diagonals(rng, range(band + 1)))


def stencil_relative_residual(T: ToeplitzOperator, x: np.ndarray, b: np.ndarray) -> float:
    """||b - T x|| / ||b|| for a five-diagonal T, from the stencil in extended precision."""
    t0, t1, t2 = (np.longdouble(T.diagonals.get(k, 0.0)) for k in (0, 1, 2))
    xl = np.asarray(x, dtype=np.longdouble)
    r = np.asarray(b, dtype=np.longdouble) - t0 * xl
    r[1:] -= t1 * xl[:-1]
    r[:-1] -= t1 * xl[1:]
    r[2:] -= t2 * xl[:-2]
    r[:-2] -= t2 * xl[2:]
    return float(np.sqrt(np.sum(r * r) / np.sum(np.asarray(b, dtype=np.longdouble) ** 2)))


MODEL_PARAMS = [(1.0, 2.0, 3.0), (0.0, 2.0, 8.0), (0.0, 1.0, 0.0)]


class TestToeplitzSymbol:
    def test_model_coefficients(self):
        sym = ToeplitzSymbol.from_model(1, 2, 3)
        assert sym.coefficients[0] == 23.0
        assert sym.coefficients[1] == sym.coefficients[-1] == -14.0
        assert sym.coefficients[2] == sym.coefficients[-2] == 3.0

    def test_second_model(self):
        sym = ToeplitzSymbol.from_model(0, 2, 8)
        assert sym.coefficients[0] == 52.0
        assert sym.coefficients[1] == -34.0
        assert sym.coefficients[2] == 8.0

    def test_symbol_at_zero_and_pi(self):
        # f(theta) = sum_k t_k exp(i k theta): f(0) = alpha, f(pi) = alpha + 4 beta + 16 gamma
        c = ToeplitzSymbol.from_model(1, 2, 3).coefficients
        assert sum(c.values()) == 1.0
        assert sum(v * (-1) ** k for k, v in c.items()) == 57.0


# Diagonals each of ToeplitzSymbol and ToeplitzOperator must reject, with the
# offset the error names.
BAD_DIAGONALS = [
    ({0: 2.0, 1: 1.0 + 0.5j, -1: 1.0 - 0.5j}, "offset 1"),  # Hermitian, but not real
    ({0: 2.0, 1: 1.0, -1: 3.0}, "offset 1"),
    ({0: 1.0, 1: 2.0, -1: -2.0}, "offset 1"),  # skew
    ({0: 2.0, 2: 0.5}, "offset 2"),  # t_(-2) missing, so zero
    ({0: 2.0, 1: -1.0, -1: -1.0, 3: math.nan, -3: math.nan}, "offset 3"),
    ({0: math.inf}, "offset 0"),
    ({0: np.complex128(2.0)}, "offset 0"),  # a complex type with zero imaginary part
]


class TestConstruction:
    """Every symbol, operator and circulant is real symmetric, checked when built."""

    @pytest.mark.parametrize("build", [ToeplitzSymbol, lambda d: ToeplitzOperator(8, d)], ids=["symbol", "operator"])
    @pytest.mark.parametrize("diagonals, offset", BAD_DIAGONALS)
    def test_rejects_complex_nonsymmetric_or_non_finite_diagonal(self, build, diagonals, offset):
        with pytest.raises(ValueError, match=offset):
            build(diagonals)

    def test_diagonals_become_floats(self):
        T = ToeplitzOperator(5, {0: 4, 1: np.int64(-1), -1: -1, 2: np.float32(0.5), -2: 0.5})
        assert all(type(v) is float for v in T.diagonals.values())
        assert T._kernel.dtype == np.float64
        np.testing.assert_array_equal(T._kernel, [0.5, -1.0, 4.0, -1.0, 0.5])

    @pytest.mark.parametrize(
        "col, match",
        [
            (np.array([2.0, 0.5j, -0.5j]), "real"),
            (np.array([2.0 + 0j, 0.5, 0.5]), "real"),  # complex dtype, real values
            (np.array([2.0, 0.5, 0.25]), "symmetric"),
            (np.array([4.0, 1.0, 0.0, 0.0, np.nextafter(1.0, 2.0)]), "symmetric"),  # c_1, c_4 an ulp apart
        ],
    )
    def test_rejects_complex_or_nonsymmetric_column(self, col, match):
        with pytest.raises(ValueError, match=match):
            CirculantMatrix(col)

    @pytest.mark.parametrize("p", ["x", True, math.nan, math.inf, 0.5], ids=["str", "bool", "nan", "inf", "below_one"])
    def test_p_follows_the_exponent_rule(self, p):
        with pytest.raises(ValueError, match="exponent p") as got:
            CirculantMatrix(np.array([2.0, 1.0, 1.0]), p)
        with pytest.raises(ValueError) as want:
            PExponent(p)
        assert str(got.value) == str(want.value)

    def test_p_is_stored_as_the_exponent_float(self):
        C = CirculantMatrix(np.array([2.0, 1.0, 1.0]), np.float64(1.5))
        assert type(C.p) is float and C.p == 1.5
        assert CirculantMatrix(np.array([2.0, 1.0, 1.0]), 2).p == 2.0
        assert CirculantMatrix(np.array([2.0, 1.0, 1.0])).p is None

    def test_one_and_two_dimensional_cases(self):
        for col in ([3.0], [3.0, -1.0]):
            C = CirculantMatrix(np.array(col))
            np.testing.assert_allclose(np.sort(C.eigenvalues), np.linalg.eigvalsh(scipy.linalg.circulant(col)))
        T = ToeplitzOperator(2, {0: 3.0, 1: -1.0, -1: -1.0, 5: 7.0, -5: 7.0})
        np.testing.assert_array_equal(T.to_dense(), [[3.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(ToeplitzOperator(1, {0: 3.0, 1: -1.0, -1: -1.0}).to_dense(), [[3.0]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n),
            lambda n: ToeplitzOperator(n, {0: 1.0}),
        ],
        ids=["build_toeplitz", "operator"],
    )
    @pytest.mark.parametrize("n", [2.5, True, math.nan, math.inf, "3", None])
    def test_rejects_a_dimension_that_is_not_an_integral_number(self, build, n):
        with pytest.raises(ValueError, match=r"^n must be a finite int, got "):
            build(n)

    def test_integral_float_dimension_is_an_int(self):
        for n, got in (
            (8.0, build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 8.0).n),
            (8.0, ToeplitzOperator(8.0, {0: 1.0}).n),
        ):
            assert type(got) is int and got == n
        np.testing.assert_array_equal(ToeplitzOperator(2.0, {0: 1.0}).to_dense(), np.eye(2))

    @pytest.mark.parametrize("n", [100, 1000, 97, 1009])
    @pytest.mark.parametrize("p", [1.0, 1.4])
    def test_corrected_column_is_exactly_symmetric(self, n, p):
        # 100 and 1000 have no prime factor above 7; 97 and 1009 are prime
        raw = lp_circulant_minimizer(build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), n), p)
        assert not raw.is_spd()
        col = strang_type_correction(raw).first_column
        assert np.array_equal(col[1:], col[:0:-1])


class TestBuildToeplitz:
    def test_laplacian_dense(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 1, 0), 5)
        expect = scipy.linalg.toeplitz([2.0, -1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(T.to_dense(), expect)

    @pytest.mark.parametrize("params", MODEL_PARAMS)
    def test_eigenvalues_inside_symbol_range(self, params):
        alpha, beta, gamma = params
        T = build_toeplitz(ToeplitzSymbol.from_model(*params), 64)
        evals = np.linalg.eigvalsh(T.to_dense())
        assert evals.min() > alpha
        assert evals.max() < alpha + 4 * beta + 16 * gamma

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 0)


class TestLpMatrixNorm:
    def test_identity_l1(self):
        assert lp_matrix_norm(np.eye(2), 1) == pytest.approx(2.0)

    def test_frobenius(self):
        assert lp_matrix_norm(np.array([[3.0, 4.0], [0.0, 0.0]]), 2) == pytest.approx(5.0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 7))
        assert lp_matrix_norm(X, 2) == pytest.approx(np.linalg.norm(X), rel=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_matrix_norm(np.eye(2), 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        # p = inf used to return 1.0 for [[1, 2], [3, 4]]
        with pytest.raises(ValueError):
            lp_matrix_norm([[1.0, 2.0], [3.0, 4.0]], p)


class TestLpCirculantMinimizer:
    def test_frobenius_model_n5(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 5)
        C = lp_circulant_minimizer(T, 2)
        np.testing.assert_allclose(
            C.first_column, [23.0, -11.2, 1.8, 1.8, -11.2], atol=1e-13
        )

    def test_majority_rule_at_p1(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 8)
        C = lp_circulant_minimizer(T, 1)
        np.testing.assert_array_equal(
            C.first_column, [23.0, -14.0, 3.0, 0.0, 0.0, 0.0, 3.0, -14.0]
        )

    @staticmethod
    def assert_matches_golden_section_oracle(T: ToeplitzOperator, p: float) -> None:
        n = T.n
        col = lp_circulant_minimizer(T, p).first_column
        d = T.diagonals
        for k in range(n):
            t_pos = float(d.get(k, 0.0))
            t_neg = float(d.get(k - n, 0.0))
            if t_pos == t_neg == 0.0:
                assert col[k] == 0.0
                continue
            want = class_minimizer_oracle(n, k, t_pos, t_neg, p)
            assert col[k] == pytest.approx(want, abs=1e-8), (d, k)

    @pytest.mark.parametrize("params", MODEL_PARAMS)
    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64])  # n <= 2w puts two stored offsets in one class
    def test_matches_golden_section_oracle(self, params, p, n):
        self.assert_matches_golden_section_oracle(build_toeplitz(ToeplitzSymbol.from_model(*params), n), p)

    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, 10.0])
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_far_offset_matches_golden_section_oracle(self, n, p):
        # offset n - 1 reaches the far corner and shares class 1 with offset 1 - n
        T = ToeplitzOperator(n, symmetric_diagonals(np.random.default_rng(n), {0, 1, n - 1}))
        self.assert_matches_golden_section_oracle(T, p)

    def test_p2_is_frobenius_projection(self):
        rng = np.random.default_rng(1)
        for band in (3, None):
            T = random_symmetric_operator(rng, 16, band)
            C = lp_circulant_minimizer(T, 2)
            want = frobenius_class_means(T.to_dense())
            np.testing.assert_allclose(C.first_column, want, atol=1e-13)

    def test_p2_pythagorean_split(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 40)
        C = lp_circulant_minimizer(T, 2)
        dense_t, dense_c = T.to_dense(), C.to_dense()
        total = lp_matrix_norm(dense_t, 2) ** 2
        split = lp_matrix_norm(dense_t - dense_c, 2) ** 2 + lp_matrix_norm(dense_c, 2) ** 2
        assert total == pytest.approx(split, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_beats_random_perturbations(self, p):
        # the minimizer is optimal over all circulants, so the rivals are
        # built from arbitrary (nonsymmetric) columns by scipy
        rng = np.random.default_rng(2)
        for n in (5, 9, 12):
            T = random_symmetric_operator(rng, n)
            C = lp_circulant_minimizer(T, p)
            dense_t = T.to_dense()
            best = lp_matrix_norm(dense_t - C.to_dense(), p)
            for _ in range(200):
                col = C.first_column + 10.0 ** rng.uniform(-6, 0) * rng.standard_normal(n)
                assert best <= lp_matrix_norm(dense_t - scipy.linalg.circulant(col), p) + 1e-12

    @pytest.mark.parametrize("n", [11, 12, 97, 100])
    def test_symmetric_operator_gives_exactly_symmetric_column(self, n):
        # CirculantMatrix raises for a column that is not, so building it is the test
        rng = np.random.default_rng(n)
        for T in (build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), n), random_symmetric_operator(rng, n)):
            for p in (1.0, 1.7, 2.0, 4.0):
                col = lp_circulant_minimizer(T, p).first_column
                assert np.array_equal(col[1:], col[:0:-1])

    def test_wrapped_entries_approach_symbol_values(self):
        # at p = 2 the wrap contamination of c_1, c_2 fades as n grows
        psi, gamma = -14.0, 3.0
        err1, err2 = [], []
        for n in (10, 100, 1000):
            T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
            col = lp_circulant_minimizer(T, 2).first_column
            err1.append(abs(col[1] - psi))
            err2.append(abs(col[2] - gamma))
        assert err1[0] > err1[1] > err1[2]
        assert err2[0] > err2[1] > err2[2]

    def test_rejects_p_below_one(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 8)
        with pytest.raises(ValueError):
            lp_circulant_minimizer(T, 0.99)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        # p = nan used to give a NaN column
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 8)
        with pytest.raises(ValueError):
            lp_circulant_minimizer(T, p)

    @pytest.mark.parametrize("p", [1.0, 1.6, 3.0])
    @pytest.mark.parametrize(
        "diagonals",
        [
            ToeplitzSymbol.from_model(0, 2, 8).coefficients,
            {0: 0.5, 1: -1.25, -1: -1.25, 3: 2.0, -3: 2.0, 7: 0.75, -7: 0.75},
            {0: 1.0, 2: 0.5, -2: 0.5, 10000: -0.25, -10000: -0.25},  # far offsets share classes 7 and 10000
        ],
    )
    def test_prime_n_matches_per_class_lookup(self, diagonals, p):
        # Definitional form: look up offsets k and k - n for every class k.
        n = 10007
        T = ToeplitzOperator(n, diagonals)
        d = T.diagonals
        t_pos = np.array([d.get(k, 0.0) for k in range(n)])
        t_neg = np.array([d.get(k - n, 0.0) for k in range(n)])
        count_pos = (n - np.arange(n)).astype(float)
        count_neg = np.arange(n).astype(float)
        if p == 1.0:
            want = np.where(count_neg > count_pos, t_neg, t_pos)
        else:
            major_is_pos = count_pos >= count_neg
            val_major = np.where(major_is_pos, t_pos, t_neg)
            val_minor = np.where(major_is_pos, t_neg, t_pos)
            big = np.maximum(count_pos, count_neg)
            small = np.minimum(count_pos, count_neg)
            w = (small / big) ** (1.0 / (p - 1.0))
            want = (val_major + val_minor * w) / (1.0 + w)
        got = lp_circulant_minimizer(T, p).first_column
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestCirculantMatrix:
    def test_small_spectrum_by_hand(self):
        C = CirculantMatrix(np.array([2.0, 1.0, 0.0, 1.0]))
        np.testing.assert_allclose(sorted(C.eigenvalues), [0.0, 2.0, 2.0, 4.0], atol=1e-14)

    def test_identity(self):
        C = CirculantMatrix(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(C.eigenvalues, np.ones(3), atol=1e-15)
        assert C.is_spd()

    def test_eigenvalues_match_dense(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(8)
        col = (col + np.roll(col[::-1], 1)) / 2  # symmetrize
        C = CirculantMatrix(col)
        dense_evals = np.linalg.eigvalsh(C.to_dense())
        np.testing.assert_allclose(sorted(C.eigenvalues), dense_evals, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_dimension_is_the_column_length(self, n):
        col = np.r_[2.0, np.zeros(n - 1)]
        C = CirculantMatrix(col)
        assert type(C.n) is int and C.n == col.size

    @pytest.mark.parametrize("first", [4, 4.0, np.int64(4), [], [[2.0, 1.0], [1.0, 2.0]]])
    def test_rejects_a_column_that_is_not_1d_and_nonempty(self, first):
        # the column fixes n: a dimension passed ahead of it is a 0-d column
        with pytest.raises(ValueError, match=r"^first_column must be 1-d of length n >= 1$"):
            CirculantMatrix(first, np.array([2.0, 1.0, 0.0, 1.0]))

    def test_negative_count(self):
        C = CirculantMatrix(np.array([0.0, 1.0]))  # eigenvalues 1, -1
        assert C.num_negative_eigenvalues == 1
        assert not C.is_spd()

    @pytest.mark.parametrize(
        "col", [[np.inf, 0.0, 0.0], [1.0, np.inf, np.inf], [1.0, np.nan, np.nan]], ids=["inf_diag", "inf_off", "nan_off"]
    )
    def test_non_finite_column_rejected(self, col):
        # The finiteness test comes first: a NaN pair is not reported as asymmetric.
        with pytest.raises(ValueError, match="^first_column must be finite$"):
            CirculantMatrix(np.array(col))


class TestModelSpectrumClosedForm:
    @pytest.mark.parametrize("params", MODEL_PARAMS)
    @pytest.mark.parametrize("p", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [10, 100])
    def test_agrees_with_dft(self, params, p, n):
        T = build_toeplitz(ToeplitzSymbol.from_model(*params), n)
        C = lp_circulant_minimizer(T, p)
        by_dft = circulant_spectrum(C)
        scale = max(1.0, float(np.max(np.abs(by_dft))))
        assert float(np.max(np.abs(np.imag(by_dft)))) <= 1e-10 * scale
        closed = model_spectrum_closed_form(C)
        np.testing.assert_allclose(np.real(by_dft), closed, atol=1e-10 * scale)

    def test_needs_model_symbol(self):
        C = CirculantMatrix(np.zeros(6))
        with pytest.raises(ValueError):
            model_spectrum_closed_form(C)

    def test_needs_five_classes(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 4)
        with pytest.raises(ValueError):
            model_spectrum_closed_form(lp_circulant_minimizer(T, 2))


class TestStrangTypeCorrection:
    def test_flips_negative_eigenvalue(self):
        # build the circulant from the spectrum {2, -0.5, -0.5}
        lam = np.array([2.0, -0.5, -0.5])
        C = CirculantMatrix(np.fft.fft(lam).real / 3.0)
        np.testing.assert_allclose(sorted(C.eigenvalues.real), [-0.5, -0.5, 2.0], atol=1e-14)
        fixed = strang_type_correction(C)
        assert fixed.is_spd()
        np.testing.assert_allclose(
            sorted(np.real(fixed.eigenvalues)), [0.5, 0.5, 2.0], atol=1e-12
        )

    def test_spd_input_unchanged(self):
        C = CirculantMatrix(np.array([3.0, 1.0, 1.0]))
        fixed = strang_type_correction(C)
        np.testing.assert_allclose(
            np.asarray(fixed.first_column), np.asarray(C.first_column), atol=1e-15
        )

    def test_uncorrectable_spectrum(self):
        C = CirculantMatrix(np.array([-1.0, 0.0]))
        with pytest.raises(UncorrectableSpectrum):
            strang_type_correction(C)

    def test_repairs_stiff_model_minimizer(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 400)
        raw = lp_circulant_minimizer(T, 1)
        assert not raw.is_spd()
        fixed = strang_type_correction(raw)
        assert fixed.is_spd()
        report = pcg_solve(T, np.ones(400), fixed)
        assert report.status == "converged"


class TestToeplitzMatvec:
    def test_laplacian_times_ones(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 1, 0), 8)
        got = toeplitz_matvec(T, np.ones(8))
        expect = np.zeros(8)
        expect[0] = expect[-1] = 1.0
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_matches_dense(self):
        rng = np.random.default_rng(4)
        T = random_symmetric_operator(rng, 33, band=5)
        x = rng.standard_normal(33)
        np.testing.assert_allclose(toeplitz_matvec(T, x), T.to_dense() @ x, atol=1e-11)

    def test_full_band_dense_agreement(self):
        rng = np.random.default_rng(5)
        diagonals = symmetric_diagonals(rng, range(7))
        T = ToeplitzOperator(9, diagonals)
        x = rng.standard_normal(9)
        np.testing.assert_allclose(
            toeplitz_matvec(T, x), dense_from_diagonals(9, diagonals) @ x, atol=1e-12
        )

    def test_complex_operand(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 1, 0), 6)
        x = np.exp(2j * np.pi * np.arange(6) / 6)
        got = toeplitz_matvec(T, x)
        np.testing.assert_allclose(got, T.to_dense() @ x, atol=1e-12)

    def test_shape_mismatch(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 1, 0), 6)
        with pytest.raises(ValueError):
            toeplitz_matvec(T, np.ones(5))

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_n_drops_offsets_beyond_the_matrix(self, n):
        rng = np.random.default_rng(8)
        diagonals = symmetric_diagonals(rng, range(4))
        T = ToeplitzOperator(n, diagonals)
        x = rng.standard_normal(n)
        got = toeplitz_matvec(T, x)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, dense_from_diagonals(n, diagonals) @ x, rtol=1e-14, atol=1e-14)

    def test_prime_n_matches_sparse_diags(self):
        n = 10007
        rng = np.random.default_rng(9)
        diagonals = symmetric_diagonals(rng, (0, 1, 2, 5))
        # scipy.sparse.diags puts offset m on A[i, i + m]; here A[i, j] = t_(i - j)
        A = scipy.sparse.diags(list(diagonals.values()), [-k for k in diagonals], shape=(n, n))
        x = rng.standard_normal(n)
        T = ToeplitzOperator(n, diagonals)
        np.testing.assert_allclose(toeplitz_matvec(T, x), A @ x, rtol=1e-13, atol=1e-13)

    def test_operator_without_main_diagonal(self):
        n = 13
        diagonals = {1: 1.5, -1: 1.5, 2: -0.75, -2: -0.75, 4: 0.5, -4: 0.5}
        x = np.random.default_rng(11).standard_normal(n)
        got = toeplitz_matvec(ToeplitzOperator(n, diagonals), x)
        np.testing.assert_allclose(got, dense_from_diagonals(n, diagonals) @ x, atol=1e-13)

    @pytest.mark.parametrize("n", [131071, 2**17])
    @pytest.mark.parametrize("kind", ["stiff", "random"])
    def test_large_n_matches_sparse_diags(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "stiff":
            T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), n)
        else:
            T = ToeplitzOperator(n, symmetric_diagonals(rng, range(3)))
        A = scipy.sparse.diags(list(T.diagonals.values()), [-k for k in T.diagonals], shape=(n, n))
        x = rng.standard_normal(n)
        np.testing.assert_allclose(toeplitz_matvec(T, x), A @ x, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 8, 17])
    def test_corner_offsets_match_dense(self, n):
        # only the corners A[n-1, 0] = t_(n-1) and A[0, n-1] = t_(1-n) off
        # the main diagonal: the widest band an operator of size n can have
        rng = np.random.default_rng(n)
        t0, t_corner = rng.standard_normal(2)
        A = np.diag(np.full(n, t0))
        A[n - 1, 0] = A[0, n - 1] = t_corner
        T = ToeplitzOperator(n, {0: t0, n - 1: t_corner, 1 - n: t_corner})
        x = rng.standard_normal(n)
        np.testing.assert_allclose(toeplitz_matvec(T, x), A @ x, rtol=1e-14, atol=1e-15)

    def test_same_bytes_with_one_and_two_blas_threads(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(tp.__file__)))
        code = (
            "import hashlib, numpy as np; from lportho import *; "
            "T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 2**17); "
            "x = np.random.default_rng(3).standard_normal(2**17); "
            "print(hashlib.sha256(toeplitz_matvec(T, x).tobytes()).hexdigest())"
        )
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestCirculantSolve:
    def test_identity(self):
        C = CirculantMatrix(np.array([1.0, 0.0, 0.0, 0.0]))
        r = np.arange(4.0)
        np.testing.assert_allclose(circulant_solve(C, r), r, atol=1e-14)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(6)
        lam = rng.uniform(1.0, 3.0, 16)
        col = np.fft.ifft(lam).real  # spectrum: the even part of lam, inside [1, 3]
        C = CirculantMatrix(0.5 * (col + np.roll(col[::-1], 1)))
        r = rng.standard_normal(16)
        got = circulant_solve(C, r)
        want = np.linalg.solve(C.to_dense(), r)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_singular_raises(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        C = lp_circulant_minimizer(T, 1)
        with pytest.raises(PreconditionerSingular):
            circulant_solve(C, np.ones(100))

    # 1, 2 and 3 have no prime factor above 7 (half-spectrum division);
    # 11, 13, 97 and 1009 take the folded power-of-two convolution.
    @pytest.mark.parametrize("n", [1, 2, 3, 11, 13, 97, 1009])
    def test_real_paths_match_dense_solve(self, n):
        rng = np.random.default_rng(n)
        col = 0.3 * rng.standard_normal(n)
        col[0] += 2.0 + float(np.sum(np.abs(col)))  # diagonally dominant, so well conditioned
        C = CirculantMatrix(0.5 * (col + np.roll(col[::-1], 1)))
        r = rng.standard_normal(n)
        got = circulant_solve(C, r)
        assert got.dtype == np.float64 and got.shape == (n,)
        np.testing.assert_allclose(got, np.linalg.solve(C.to_dense(), r), rtol=1e-12, atol=1e-13)

    def test_rejects_complex_operand(self):
        C = CirculantMatrix(np.r_[4.0, np.zeros(12)])
        with pytest.raises(ValueError, match="real"):
            circulant_solve(C, np.ones(13) + 1j)

    def test_prime_length_matches_complex_fft_formula(self):
        n = 10007
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
        C = lp_circulant_minimizer(T, 1.0)
        r = np.random.default_rng(13).standard_normal(n)
        want = np.fft.ifft(np.fft.fft(r) / np.fft.fft(C.first_column)).real
        got = circulant_solve(C, r)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# Banded circulants: the cosine-sum spectrum at every n, and the banded apply
# at n with a prime factor above 7. Oracles: dense solves, numpy's FFT, and
# the cosine sum in extended precision.

PAPER_P_GRID = (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)
EPS = np.finfo(float).eps
BANDED_SYMBOLS = {
    "gentle": ToeplitzSymbol.from_model(1, 2, 3),
    "stiff": ToeplitzSymbol.from_model(0, 2, 8),
    "laplacian": ToeplitzSymbol.from_model(0, 1, 0),  # w = 1
    "near_singular": ToeplitzSymbol.from_model(1e-6, 2, 8),
    "diagonal": ToeplitzSymbol({0: 2.5}),  # w = 0
    "w3": ToeplitzSymbol({0: 10.0, 1: -3.0, -1: -3.0, 2: 1.0, -2: 1.0, 3: -0.5, -3: -0.5}),
}
NON_SMOOTH_N = (97, 143, 1009, 2003)  # 97, 11 * 13, 1009 and 2003
SMOOTH_N = (100, 128, 700, 1000, 4096)  # no prime factor above 7


def fft_spectrum(C):
    return np.fft.fft(C.first_column).real


def apply_path(C, n):
    """The path pcg_solve reports for M = C (built, but no iterations)."""
    return pcg_solve(ToeplitzOperator(n, {0: 1.0}), np.ones(n), C, maxit=0).apply_path


class TestBandedCirculant:
    @pytest.mark.parametrize("n", NON_SMOOTH_N)
    @pytest.mark.parametrize(
        "name, p",
        [(name, p) for name in ("gentle", "stiff", "laplacian", "near_singular") for p in PAPER_P_GRID]
        + [("diagonal", 1.0), ("w3", 1.0), ("w3", 2.0)],
    )
    def test_solve_matches_dense_solve(self, n, name, p):
        C = lp_circulant_minimizer(build_toeplitz(BANDED_SYMBOLS[name], n), p)
        lam = fft_spectrum(C)
        r = np.random.default_rng(n).standard_normal(n)
        if np.min(np.abs(lam)) <= 1e-13 * np.max(np.abs(lam)):
            with pytest.raises(PreconditionerSingular):
                circulant_solve(C, r)
            return
        if np.min(lam) > 0:
            assert apply_path(C, n) == "banded_cholesky"
        want = np.linalg.solve(C.to_dense(), r)
        got = circulant_solve(C, r)
        # both solves are backward stable: forward error a small multiple of cond * eps
        cond = np.max(np.abs(lam)) / np.min(np.abs(lam))
        assert np.linalg.norm(got - want) <= 16 * cond * EPS * np.linalg.norm(want)

    @pytest.mark.parametrize("n", NON_SMOOTH_N + SMOOTH_N)
    @pytest.mark.parametrize("name", sorted(BANDED_SYMBOLS))
    @pytest.mark.parametrize("p", [1.0, 1.6, 10.0])
    def test_spectrum_matches_cosine_sum_and_fft(self, n, name, p):
        C = lp_circulant_minimizer(build_toeplitz(BANDED_SYMBOLS[name], n), p)
        lam = C.eigenvalues
        assert lam.dtype == np.float64 and lam.shape == (n,)
        col = C.first_column
        w = max(k for k in range(n // 2 + 1) if col[k] != 0.0)
        exact = np.full(n, np.longdouble(col[0]))
        two_pi = 8 * np.arctan(np.longdouble(1))
        j = np.arange(n)
        for k in range(1, w + 1):
            exact += 2 * np.longdouble(col[k]) * np.cos(two_pi * (j * k % n) / n)
        scale = float(np.max(np.abs(exact)))
        if np.finfo(np.longdouble).eps < EPS:
            assert float(np.max(np.abs(lam - exact))) <= 2 * EPS * scale
        # numpy's FFT of these lengths is itself up to about 4.1 eps * scale
        # away from the extended-precision sum
        assert float(np.max(np.abs(lam - fft_spectrum(C)))) <= 8 * EPS * scale

    @pytest.mark.parametrize("n", NON_SMOOTH_N + (131071,))
    def test_cosine_table_within_an_ulp(self, n):
        from lportho.toeplitz_preconditioning import _cos_table

        if np.finfo(np.longdouble).eps >= EPS:
            pytest.skip("no extended precision here")
        m = np.arange(n // 2 + 1)
        exact = np.cos(8 * np.arctan(np.longdouble(1)) * m / n)
        # cos(2 pi m / n) in double precision is off by up to 2 ulps of 1
        assert float(np.max(np.abs(_cos_table(n) - exact))) <= EPS

    def test_indefinite_band_keeps_folded_kernel(self):
        n = 1009
        T = build_toeplitz(BANDED_SYMBOLS["stiff"], n)
        C = lp_circulant_minimizer(T, 1.4)
        assert np.min(fft_spectrum(C)) < 0
        report = pcg_solve(T, np.ones(n), C)
        assert report.status == "preconditioner_indefinite"
        assert report.apply_path == "folded_kernel"

    def test_corrected_column_takes_folded_kernel(self):
        n = 97
        T = build_toeplitz(BANDED_SYMBOLS["stiff"], n)
        C = strang_type_correction(lp_circulant_minimizer(T, 1.4))
        assert np.count_nonzero(C.first_column) > 2 * 8 + 1  # dense: no longer banded
        assert apply_path(C, n) == "folded_kernel"
        r = np.random.default_rng(5).standard_normal(n)
        want = np.linalg.solve(C.to_dense(), r)
        np.testing.assert_allclose(circulant_solve(C, r), want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("n, name", [(11, "w3"), (97, None)])
    def test_wide_band_takes_folded_kernel(self, n, name):
        # n = 11 with w = 3 has 4w >= n; at n = 97 a band of 9 exceeds the cap
        symbol = BANDED_SYMBOLS[name] if name else ToeplitzSymbol(
            {k: (20.0 if k == 0 else -0.5) for k in range(-9, 10)}
        )
        C = lp_circulant_minimizer(build_toeplitz(symbol, n), 2.0)
        assert np.min(fft_spectrum(C)) > 0
        assert apply_path(C, n) == "folded_kernel"
        r = np.random.default_rng(n).standard_normal(n)
        np.testing.assert_allclose(circulant_solve(C, r), np.linalg.solve(C.to_dense(), r), rtol=1e-12, atol=1e-13)

    def test_apply_path_reported(self):
        T = build_toeplitz(BANDED_SYMBOLS["gentle"], 97)
        assert pcg_solve(T, np.ones(97)).apply_path is None
        assert pcg_solve(T, np.ones(97), lp_circulant_minimizer(T, 1.0)).apply_path == "banded_cholesky"
        T = build_toeplitz(BANDED_SYMBOLS["gentle"], 96)
        assert pcg_solve(T, np.ones(96), lp_circulant_minimizer(T, 1.0)).apply_path == "half_spectrum"
        # at a 7-smooth n a banded SPD column keeps the half-spectrum apply
        for n in (100, 128, 300, 700, 1000, 2**12):
            for p in (1.0, 1.6):
                C = lp_circulant_minimizer(build_toeplitz(BANDED_SYMBOLS["stiff"], n), p)
                if C.is_spd():
                    assert apply_path(C, n) == "half_spectrum", (n, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 97, 100])
    def test_every_spectrum_is_mirrored_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        dense = rng.standard_normal(n)
        dense = 0.5 * (dense + np.roll(dense[::-1], 1))
        dense[0] = 0.5
        wide = np.where(np.minimum(np.arange(n), n - np.arange(n)) <= 9, dense, 0.0)  # w = 9: over the cap
        columns = {
            "banded": lp_circulant_minimizer(build_toeplitz(BANDED_SYMBOLS["stiff"], n), 1.4),
            "dense": CirculantMatrix(dense),
            "wide": CirculantMatrix(wide),
            "corrected": strang_type_correction(CirculantMatrix(dense)),
        }
        for name, C in columns.items():
            lam = C.eigenvalues
            assert lam.shape == (n,) and np.array_equal(lam[1:], lam[:0:-1]), name
            assert np.array_equal(circulant_spectrum(C), lam), name
            np.testing.assert_allclose(lam, np.fft.fft(C.first_column).real, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(lam))))
        assert columns["corrected"].is_spd()

    @pytest.mark.parametrize("correction", ["off", "on"])
    def test_no_complex_fft(self, monkeypatch, correction):
        # every spectrum, correction and apply takes real FFTs or none
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, lambda *a, **k: pytest.fail("took a complex FFT"))
        result = run_benchmark(BenchmarkConfig(0, 2, 8, (97, 100), (1.0, 1.4, 1.6, 10.0), correction=correction))
        statuses = {cell.report.status for cell in result.cells}
        assert "converged" in statuses
        assert ("preconditioner_indefinite" in statuses) == (correction == "off")
        for n in (97, 100):
            rng = np.random.default_rng(n)
            dense = rng.standard_normal(n)
            dense = 0.5 * (dense + np.roll(dense[::-1], 1))
            dense[0] += 2.0 + float(np.sum(np.abs(dense)))
            for C in (CirculantMatrix(dense), lp_circulant_minimizer(build_toeplitz(BANDED_SYMBOLS["gentle"], n), 1.0)):
                r = rng.standard_normal(n)
                np.testing.assert_allclose(circulant_solve(C, r), np.linalg.solve(C.to_dense(), r), rtol=1e-10, atol=1e-12)


class TestPcgSolve:
    def test_identity_converges_immediately(self):
        T = ToeplitzOperator(8, {0: 1.0})
        report = pcg_solve(T, np.ones(8))
        assert report.status == "converged"
        assert report.iterations == 1
        np.testing.assert_allclose(report.solution, np.ones(8), atol=1e-12)

    def test_zero_rhs(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 10)
        report = pcg_solve(T, np.zeros(10))
        assert report.status == "converged"
        assert report.iterations == 0
        np.testing.assert_array_equal(report.solution, np.zeros(10))

    @pytest.mark.parametrize("p", [None, 1.0, 2.0])
    def test_solution_matches_dense_solve(self, p):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 64)
        b = np.ones(64)
        M = lp_circulant_minimizer(T, p) if p is not None else None
        report = pcg_solve(T, b, M)
        assert report.status == "converged"
        want = np.linalg.solve(T.to_dense(), b)
        np.testing.assert_allclose(report.solution, want, atol=1e-8)

    def test_residual_history_contract(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 100)
        report = pcg_solve(T, np.ones(100), lp_circulant_minimizer(T, 1))
        assert report.relative_residuals[0] == 1.0
        assert report.relative_residuals[-1] <= DEFAULT_PCG_TOL
        assert len(report.relative_residuals) == report.iterations + 1

    def test_well_clustered_preconditioner_needs_three_steps(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 100)
        report = pcg_solve(T, np.ones(100), lp_circulant_minimizer(T, 1))
        assert report.iterations == 3

    def test_max_iterations_status(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 64)
        report = pcg_solve(T, np.ones(64), None, DEFAULT_PCG_TOL, 2)
        assert report.status == "max_iterations"
        assert report.iterations == 2
        assert report.solution is not None

    def test_singular_preconditioner_status(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        report = pcg_solve(T, np.ones(100), lp_circulant_minimizer(T, 1))
        assert report.status == "preconditioner_singular"
        assert report.iterations == 0
        assert report.solution is None

    def test_indefinite_preconditioner_status(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        report = pcg_solve(T, np.ones(100), lp_circulant_minimizer(T, 1.4))
        assert report.status == "preconditioner_indefinite"
        assert report.solution is None

    def test_indefinite_operator_status(self):
        # A nonpositive curvature d.Td is a status, not an exception.
        report = pcg_solve(ToeplitzOperator(4, {0: -1.0}), np.ones(4))
        assert (report.status, report.iterations, report.relative_residuals) == ("operator_indefinite", 0, (1.0,))
        assert report.solution is None and report.true_relative_residual is None
        # symbol 0.5 + 2 cos(theta): two iterations complete before d.Td <= 0
        report = pcg_solve(ToeplitzOperator(8, {0: 0.5, 1: 1.0, -1: 1.0}), np.ones(8))
        assert (report.status, report.iterations, len(report.relative_residuals)) == ("operator_indefinite", 2, 3)
        assert report.solution is None

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_rejects_non_finite_tol(self, tol):
        # tol = inf used to report converged at x = 0
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 6)
        with pytest.raises(ValueError, match="tol"):
            pcg_solve(T, np.ones(6), tol=tol)

    def test_rejects_bad_rhs(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 6)
        with pytest.raises(ValueError):
            pcg_solve(T, np.ones(5))
        with pytest.raises(ValueError):
            pcg_solve(T, np.full(6, np.nan))

    @pytest.mark.parametrize("p", [None, 1.0])
    def test_rejects_complex_rhs(self, monkeypatch, p):
        # used to drop the imaginary part with a ComplexWarning and report converged
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 8)
        M = lp_circulant_minimizer(T, p) if p is not None else None
        monkeypatch.setattr(tp, "_real_inverse", lambda C: pytest.fail("built an apply"))
        for b in (np.ones(8) + 1j, np.ones(8, dtype=complex), [1j] * 8):
            with pytest.raises(ValueError, match="real"):
                pcg_solve(T, b, M)

    def test_rejects_negative_maxit(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 6)
        with pytest.raises(ValueError, match="maxit"):
            pcg_solve(T, np.ones(6), maxit=-3)
        report = pcg_solve(T, np.ones(6), maxit=0)
        assert (report.status, report.iterations) == ("max_iterations", 0)

    @pytest.mark.parametrize("maxit", [2.5, math.nan, math.inf, True, "2"])
    def test_rejects_non_integral_maxit_before_any_work(self, monkeypatch, maxit):
        # these used to raise TypeError from range() after the apply was built,
        # and True ran one iteration
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 8)
        M = lp_circulant_minimizer(T, 1.0)
        monkeypatch.setattr(tp, "_real_inverse", lambda C: pytest.fail("built an apply"))
        with pytest.raises(ValueError, match="maxit"):
            pcg_solve(T, np.ones(8), M, maxit=maxit)

    def test_integral_float_maxit_is_an_int(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 64)
        report = pcg_solve(T, np.ones(64), None, maxit=2.0)
        assert (report.status, report.iterations) == ("max_iterations", 2)
        assert type(report.iterations) is int

    def test_rejects_preconditioner_of_other_dimension(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 64)
        M = lp_circulant_minimizer(build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 63), 1.0)
        with pytest.raises(ValueError, match="dimension"):
            pcg_solve(T, np.ones(64), M)

    @pytest.mark.parametrize("p", [None, 2.0])
    def test_true_residual_matches_dense_residual(self, p):
        n = 40
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
        b = np.random.default_rng(14).standard_normal(n)
        M = lp_circulant_minimizer(T, p) if p is not None else None
        for maxit in (0, 2, None):
            report = pcg_solve(T, b, M, maxit=maxit)
            want = np.linalg.norm(b - T.to_dense() @ report.solution) / np.linalg.norm(b)
            assert report.true_relative_residual == pytest.approx(want, rel=1e-6, abs=1e-13)
        assert report.status == "converged" and report.true_relative_residual < 1e-8

    @pytest.mark.parametrize("p", [None, 1.0])
    @pytest.mark.parametrize("maxit", [None, 0, 2])
    def test_counts_matvecs_and_applies(self, monkeypatch, p, maxit):
        # a returned solution after k iterations took k + 1 matvecs, the exit
        # one included, and k applies: none is made for an iteration that
        # does not run
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 64)
        M = lp_circulant_minimizer(T, p) if p is not None else None
        calls = []
        matvec = tp.toeplitz_matvec
        monkeypatch.setattr(tp, "toeplitz_matvec", lambda T, x: calls.append(x.size) or matvec(T, x))
        report = pcg_solve(T, np.ones(64), M, maxit=maxit)
        k = report.iterations
        assert report.status == ("converged" if maxit is None else "max_iterations")
        assert report.replacements == 0
        assert report.matvecs == k + 1 == len(calls)
        if M is None:
            assert report.applies == 0
        else:
            assert report.applies == k

    def test_counts_without_work(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        for M in (None, lp_circulant_minimizer(T, 1.6)):
            report = pcg_solve(T, np.zeros(100), M)
            assert (report.iterations, report.matvecs, report.applies) == (0, 0, 0)
        report = pcg_solve(T, np.ones(100), lp_circulant_minimizer(T, 1.0))  # singular
        assert (report.status, report.matvecs, report.applies) == ("preconditioner_singular", 0, 0)

    def test_replacement_counts_one_matvec(self, monkeypatch):
        # stiff (1000, 3): the recursive residual reaches tol while the true
        # one is still above it, so the true one replaces it once
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 1000)
        calls = []
        matvec = tp.toeplitz_matvec
        monkeypatch.setattr(tp, "toeplitz_matvec", lambda T, x: calls.append(x.size) or matvec(T, x))
        report = pcg_solve(T, np.ones(1000), lp_circulant_minimizer(T, 3.0))
        assert report.status == "converged" and report.replacements >= 1
        assert report.matvecs == report.iterations + 1 + report.replacements == len(calls)
        assert report.applies == report.iterations
        assert report.true_relative_residual <= DEFAULT_PCG_TOL
        assert stencil_relative_residual(T, report.solution, np.ones(1000)) <= DEFAULT_PCG_TOL

    def test_stagnated_returns_its_solution(self):
        # at tol 1e-13 rounding stops the stiff n = 100 solve short of tol
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        b = np.ones(100)
        report = pcg_solve(T, b, lp_circulant_minimizer(T, 1.6), tol=1e-13)
        assert report.status == "stagnated" and report.replacements >= 1
        assert report.matvecs == report.iterations + 1 + report.replacements
        want = np.linalg.norm(b - T.to_dense() @ report.solution) / np.linalg.norm(b)
        assert report.true_relative_residual == pytest.approx(want, rel=1e-3)
        assert 1e-13 < report.true_relative_residual < 1e-9

    def test_maxit_exit_meeting_tol_is_converged(self):
        # The recursive and true residuals differ in their last digits. A
        # tol between them, with the true one below, stops no iteration
        # early, so the solve runs to maxit; the exit status must still
        # follow the true residual.
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 64)
        b = np.ones(64)
        for k in range(1, 40):
            report = pcg_solve(T, b, None, maxit=k)
            recursive, true = report.relative_residuals[-1], report.true_relative_residual
            if true < recursive < min(report.relative_residuals[:-1]):
                break
        else:
            pytest.fail("no iteration whose true residual is below its recursive one")
        tol = true + (recursive - true) / 2
        report = pcg_solve(T, b, None, tol=tol, maxit=k)
        assert (report.status, report.iterations, report.matvecs) == ("converged", k, k + 1)
        assert report.true_relative_residual == true
        assert pcg_solve(T, b, None, tol=true / 2, maxit=k).status == "max_iterations"

    def test_true_residual_absent_without_solution(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        for p in (1.0, 1.4):  # singular, then indefinite
            report = pcg_solve(T, np.ones(100), lp_circulant_minimizer(T, p))
            assert report.solution is None and report.true_relative_residual is None
        assert pcg_solve(T, np.zeros(100)).true_relative_residual == 0.0


class TestAttainableAccuracy:
    @pytest.mark.parametrize("params", [(1, 2, 3), (0, 2, 8)], ids=["gentle", "stiff"])
    @pytest.mark.parametrize("correction", ["off", "on"])
    def test_every_paper_cell_status_is_honest(self, params, correction):
        # converged exactly when the extended-precision residual meets tol
        n_list = (100, 400, 700, 1000)
        result = run_benchmark(BenchmarkConfig(*params, n_list, PAPER_P_GRID, correction=correction))
        solved = [cell for cell in result.cells if cell.report.solution is not None]
        assert len(solved) >= 3 * len(n_list)
        for cell in solved:
            T = build_toeplitz(ToeplitzSymbol.from_model(*params), cell.n)
            residual = stencil_relative_residual(T, cell.report.solution, np.ones(cell.n))
            assert (cell.report.status == "converged") == (residual <= DEFAULT_PCG_TOL), (cell.n, cell.p, residual)

    def test_stiff_large_solve_stagnates_near_the_banded_cholesky_oracle(self):
        # No float64 method reaches tol here: a banded Cholesky solve
        # (LAPACK, through scipy) sets the attainable residual. The iteration
        # count follows the BLAS thread count, so only a bound is pinned.
        n = 2**17
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), n)
        b = np.ones(n)
        report = pcg_solve(T, b, lp_circulant_minimizer(T, select_p_tilde(T, PAPER_P_GRID)))
        band = np.zeros((3, n))
        for k in range(3):
            band[k, : n - k] = T.diagonals[k]
        oracle = stencil_relative_residual(T, scipy.linalg.solveh_banded(band, b, lower=True), b)
        got = stencil_relative_residual(T, report.solution, b)
        assert report.status == "stagnated" and report.iterations < 35
        assert DEFAULT_PCG_TOL < oracle <= got <= 10 * oracle
        assert report.true_relative_residual == pytest.approx(got, rel=0.05)


class TestSelectPTilde:
    GRID = [1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0]

    def test_gentle_model_accepts_one(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 100)
        assert select_p_tilde(T, self.GRID) == 1.0

    def test_stiff_model_needs_higher_exponent(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        assert select_p_tilde(T, self.GRID) == 1.6

    @pytest.mark.parametrize("case, want", [("gentle", 1.0), ("stiff", 1.6), ("random_prime", 1.6)])
    def test_selection_matches_sylvester_oracle(self, case, want):
        # For SPD T, C^(-1) T has a real positive spectrum exactly when C is
        # SPD (Sylvester's law of inertia). The oracle takes the dense
        # eigenvalues of C^(-1) T: positive at the selected p, not at the
        # grid's previous p.
        if case == "random_prime":
            # |g(theta)|^2 for integer taps g summing to zero: an SPD banded
            # symbol that vanishes at theta = 0, at the prime n = 127
            taps = np.random.default_rng(3).integers(-4, 5, size=4)
            taps[-1] -= taps.sum()
            t = np.correlate(taps, taps, "full")[taps.size - 1 :]
            T = ToeplitzOperator(127, {s * k: float(v) for k, v in enumerate(t) for s in (1, -1)})
        else:
            T = build_toeplitz(ToeplitzSymbol.from_model(*{"gentle": (1, 2, 3), "stiff": (0, 2, 8)}[case]), 128)
        assert np.linalg.eigvalsh(T.to_dense()).min() > 0

        def spectrum(p):
            return np.linalg.eigvals(np.linalg.solve(lp_circulant_minimizer(T, p).to_dense(), T.to_dense()))

        p = select_p_tilde(T, self.GRID)
        assert p == want
        lam = spectrum(p)
        assert np.all(lam.real > 0) and np.max(np.abs(lam.imag)) <= 1e-8 * np.max(np.abs(lam))
        i = self.GRID.index(p)
        if i:
            assert np.min(spectrum(self.GRID[i - 1]).real) <= 0

    def test_no_admissible_exponent(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        with pytest.raises(NoAdmissibleExponent):
            select_p_tilde(T, [1.0, 1.4])

    def test_grid_validation(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 16)
        with pytest.raises(ValueError):
            select_p_tilde(T, [])
        with pytest.raises(ValueError):
            select_p_tilde(T, [2.0, 1.5])

    @pytest.mark.parametrize("grid", [[True], [1.0, True], [False, 1.0], [math.nan], ["1.0"]])
    def test_rejects_a_grid_entry_that_is_not_a_number(self, grid):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 16)
        with pytest.raises(ValueError, match=r"^p_grid entry must be a finite float, got "):
            select_p_tilde(T, grid)


class TestSpectrumDiagnostic:
    def test_perfect_preconditioner(self):
        T = ToeplitzOperator(16, {0: 2.0})
        C = CirculantMatrix(np.r_[2.0, np.zeros(15)])
        diag = preconditioned_spectrum_diagnostic(T, C)
        np.testing.assert_allclose(diag.eigenvalues, np.ones(16), atol=1e-12)
        assert diag.cluster_fractions[0.1] == 1.0
        assert diag.cluster_fractions[0.01] == 1.0

    def test_gentle_model_clusters_tightly(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), 128)
        C = lp_circulant_minimizer(T, 1)
        diag = preconditioned_spectrum_diagnostic(T, C)
        assert diag.cluster_fractions[0.1] >= 0.9

    def test_rejects_indefinite_circulant(self):
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), 100)
        with pytest.raises(NotPositiveDefinite):
            preconditioned_spectrum_diagnostic(T, lp_circulant_minimizer(T, 1.4))

    def test_rejects_large_dimension(self):
        n = DENSE_DIAGNOSTIC_LIMIT + 1
        T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
        with pytest.raises(ValueError):
            preconditioned_spectrum_diagnostic(T, lp_circulant_minimizer(T, 2))


SMALL_CONFIG = {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [8], "p_list": [2.0]}
# Values the benchmark config must reject with a ValueError naming the key.
BAD_CONFIG_VALUES = [
    ("alpha", "1"), ("alpha", [1]), ("alpha", math.nan), ("beta", None), ("gamma", True),
    ("tol", "1e-3"), ("tol", math.inf),
    ("p_list", ["2"]), ("p_list", [None]), ("p_list", [False]), ("p_list", 2.0),
    ("n_list", [16.7]), ("n_list", [True]), ("n_list", ["16"]), ("n_list", "16"),
    ("maxit", 2.5), ("maxit", "40"), ("seed", 1.5), ("seed", False),
]
BAD_CONFIG_IDS = [f"{key}={value!r}" for key, value in BAD_CONFIG_VALUES]


# top-level JSON values other than an object, and the type each parses to
NON_OBJECT_JSON = [(5, "int"), (None, "NoneType"), ("x", "str"), ([1, 2], "list")]


class TestBenchmark:
    def test_config_round_trip(self):
        cfg = BenchmarkConfig(1, 2, 3, (100,), (1.0, 2.0), seed=7)
        again = BenchmarkConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            BenchmarkConfig.from_dict(
                {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [4], "p_list": [2], "shape": "x"}
            )

    def test_config_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            BenchmarkConfig.from_dict({"alpha": 1, "beta": 2, "gamma": 3, "n_list": [4]})

    @pytest.mark.parametrize("doc, kind", NON_OBJECT_JSON, ids=[kind for _, kind in NON_OBJECT_JSON])
    def test_config_rejects_non_object(self, doc, kind):
        with pytest.raises(ValueError, match=f"must be a JSON object, got {kind}$"):
            BenchmarkConfig.from_dict(doc)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(1, 2, 3, (8,), (2.0,), correction="maybe")
        with pytest.raises(ValueError):
            BenchmarkConfig(1, 2, 3, (8,), (0.5,))
        with pytest.raises(ValueError):
            BenchmarkConfig(1, 2, 3, (), (2.0,))

    def test_config_rejects_negative_maxit(self):
        with pytest.raises(ValueError, match="maxit"):
            BenchmarkConfig(1, 2, 3, (8,), (2.0,), maxit=-2)
        with pytest.raises(ValueError, match="maxit"):
            BenchmarkConfig.from_dict(
                {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [8], "p_list": [2], "maxit": -2}
            )

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES, ids=BAD_CONFIG_IDS)
    def test_config_rejects_bad_values(self, key, value):
        doc = dict(SMALL_CONFIG, **{key: value})
        with pytest.raises(ValueError, match=key):
            BenchmarkConfig.from_dict(doc)

    def test_config_rejects_repeated_dimension(self):
        with pytest.raises(ValueError, match="n_list"):
            BenchmarkConfig(1, 2, 3, (8, 16, 8), (2.0,))

    def test_config_stores_plain_numbers(self):
        # integral floats and numpy scalars become Python ints and floats,
        # which the manifest's JSON emitter accepts
        doc = dict(SMALL_CONFIG, alpha=1, tol=np.float64(1e-6), n_list=[8.0, np.int64(16)], maxit=40.0, seed=np.int64(3))
        cfg = BenchmarkConfig.from_dict(doc)
        want = BenchmarkConfig(1.0, 2.0, 3.0, (8, 16), (2.0,), tol=1e-6, maxit=40, seed=3)
        assert cfg == want
        values = (cfg.alpha, cfg.beta, cfg.tol, cfg.maxit, cfg.seed, *cfg.n_list, *cfg.p_list)
        assert [type(v) for v in values] == [float, float, float, int, int, int, int, float]
        assert dumps_json(cfg.to_dict()) == dumps_json(want.to_dict())

    def test_small_sweep_cells(self):
        cfg = BenchmarkConfig(1, 2, 3, (100,), (1.0,))
        result = run_benchmark(cfg)
        assert len(result.cells) == 2  # p = 1 plus the unpreconditioned column
        assert result.cell(100, 1.0).report.iterations == 3
        assert result.cell(100, None).report.status == "converged"
        assert result.cell(100, 1.0).circulant_eigenvalues is not None
        assert result.cell(100, None).circulant_eigenvalues is None

    def test_random_rhs_is_one_draw_per_row_in_order(self):
        cfg = BenchmarkConfig(1, 2, 3, (48, 32), (2.0,), rhs="random", seed=5)
        result = run_benchmark(cfg)
        rng = np.random.default_rng(5)
        for n in (48, 32):
            b = rng.standard_normal(n)
            T = build_toeplitz(ToeplitzSymbol.from_model(1, 2, 3), n)
            for p, M in ((2.0, lp_circulant_minimizer(T, 2.0)), (None, None)):
                want = pcg_solve(T, b, M, cfg.tol).solution
                assert np.array_equal(result.cell(n, p).report.solution, want), (n, p)

    def test_random_rhs_deterministic_under_seed(self):
        cfg = BenchmarkConfig(1, 2, 3, (64,), (2.0,), rhs="random", seed=11)
        a = run_benchmark(cfg)
        b = run_benchmark(cfg)
        np.testing.assert_array_equal(
            a.cell(64, 2.0).report.solution, b.cell(64, 2.0).report.solution
        )

    def test_failed_cells_render_as_hash(self):
        cfg = BenchmarkConfig(0, 2, 8, (100,), (1.0, 1.4, 1.6))
        result = run_benchmark(cfg)
        csv_text = render_table_csv(result)
        md_text = render_table_markdown(result)
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[0] == "100"
        assert row[1] == "#" and row[2] == "#"
        assert row[3] == "11"
        assert "#" in md_text

    def test_stagnated_cells_render_as_hash(self):
        result = run_benchmark(BenchmarkConfig(0, 2, 8, (100,), (1.6,), tol=1e-13))
        assert [cell.report.status for cell in result.cells] == ["stagnated", "stagnated"]
        assert render_table_csv(result).splitlines()[1] == "100,#,#"

    def test_correction_rescues_singular_cell(self):
        base = BenchmarkConfig(0, 2, 8, (100,), (1.0,))
        fixed = BenchmarkConfig(0, 2, 8, (100,), (1.0,), correction="on")
        assert run_benchmark(base).cell(100, 1.0).report.status == "preconditioner_singular"
        report = run_benchmark(fixed).cell(100, 1.0).report
        assert report.status == "converged"

    def test_table_header_names_columns(self):
        cfg = BenchmarkConfig(1, 2, 3, (64,), (1.0, 2.0))
        header = render_table_csv(run_benchmark(cfg)).splitlines()[0]
        assert header.split(",")[0] == "n"
        assert "n. p." in header
