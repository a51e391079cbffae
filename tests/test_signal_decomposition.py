import decimal
import logging
import math

import numpy as np
import pytest

from lportho._serialize import dumps_json
from lportho.signal_decomposition import (
    InconsistentDecomposition,
    Decomposition,
    EnergyReport,
    Signal,
    _moving_average_transfer,
    check_energy_conservation,
    chirp_plus_tone,
    decomposition_from_dict,
    decomposition_to_dict,
    energy_report_to_dict,
    fif_decompose,
    l1_fourier_energy,
    pairwise_l1_angles,
    read_signal_csv,
    write_signal_csv,
)


def random_signal(rng, n):
    return Signal(rng.standard_normal(n))


def full_spectrum_tau(n, hw):
    """A stage's factors tau at all n bins, from the complex FFT of the ones kernel."""
    kernel = np.zeros(n)
    kernel[: hw + 1] = 1.0
    kernel[n - hw:] = 1.0
    return np.clip((np.fft.fft(kernel).real / (2 * hw + 1)) ** 2, 0.0, 1.0)


def fif_by_passes(s, halfwidths, delta=1e-3, max_inner=200):
    """fif_decompose with every inner pass run one by one: the oracle for its
    bisected stopping index at unit amplitude. Returns (components, trend,
    meta, stages), stages holding each stage's (remainder spectrum, tau, damp)."""
    rhat = np.fft.fft(s.samples)
    components, counts, achieved, converged, stages = [], [], [], [], []
    for hw in halfwidths:
        tau = full_spectrum_tau(s.n, hw)
        damp = 1.0 - tau
        stages.append((rhat, tau, damp))
        m_prev, used, ach, hit = rhat, max_inner, math.inf, False
        for it in range(1, max_inner + 1):
            m = damp * m_prev
            change = float(np.linalg.norm(m - m_prev))
            base = float(np.linalg.norm(m_prev))
            ach = change / base if base > 0 else 0.0
            m_prev = m
            if ach <= delta:
                used, hit = it, True
                break
        rhat = rhat - m_prev
        components.append(np.fft.ifft(m_prev).real)
        counts.append(used)
        achieved.append(ach)
        converged.append(hit)
    meta = {
        "halfwidths": list(halfwidths),
        "delta": float(delta),
        "max_inner": int(max_inner),
        "inner_iterations": counts,
        "achieved_delta": achieved,
        "converged": converged,
    }
    return components, np.fft.ifft(rhat).real, meta, stages


def closed_form_ratio(rhat, tau, damp, passes):
    """The stopping ratio of pass `passes` in 40-digit decimal arithmetic:
    sqrt(sum(tau^2 g) / sum(g)) with g = damp^(2 passes - 2) |rhat|^2, taking
    the float inputs as exact (Decimal(float) is); 0 when every g is 0."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        num = den = D(0)
        for t, d, re, im in zip(tau.tolist(), damp.tolist(), rhat.real.tolist(), rhat.imag.tolist()):
            g = D(re) ** 2 + D(im) ** 2
            if passes > 1:  # Decimal rejects 0 ** 0
                g *= D(d) ** (2 * passes - 2)
            num += D(t) ** 2 * g
            den += g
        return float((num / den).sqrt()) if den else 0.0


# Relative bound on achieved_delta against closed_form_ratio. The float form
# rounds |r|, two logarithms, one product and one sum per weight, the shift by
# the largest log-weight, exp, tau^2, two pairwise sums of n terms, a division
# and a square root. The shift's error is common to every weight and cancels;
# each weight keeps a relative error of about eps times the size of its
# log-weight, and the weights that carry the sums lie within a few tens of the
# largest one, itself within a few tens of 0 for these signals (their mass
# sits on bins whose damping factor is near 1). That is at most a few hundred
# ulps to first order; the largest error seen on these cells is 2 ulps.
RATIO_RTOL = 2.0 ** -40


# Bound on each part of fif_decompose against the complex pass-by-pass oracle,
# in units of max|s|. fif_decompose works on rfft bins and forms damp^N at
# once; the oracle takes a complex FFT and multiplies by damp N times, one
# rounding per pass. Both round the forward and the inverse transform (about
# eps log2 n relative in l2), and the oracle's N <= 200 products leave each
# bin within N/2 ulps; a sample sums n such errors with unimodular weights
# and 1/n, so it lands within a few ulps of max|s|. The largest error seen
# is 9.0 ulps over the oracle cells and 9.3 ulps at 2^20.
PART_ATOL = 32 * np.finfo(float).eps


def assert_parts_close(got, want, s):
    """Each part within PART_ATOL * max|s| of its reference (exactly equal for s = 0)."""
    bound = PART_ATOL * float(np.max(np.abs(s.samples)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert float(np.max(np.abs(g - w))) <= bound


FIF_SIGNALS = {
    "noise": lambda n: np.random.default_rng(n).standard_normal(n),
    "chirp": lambda n: chirp_plus_tone(n).samples + 0.1 * np.random.default_rng(n).standard_normal(n),
    "zero": np.zeros,
    "constant": lambda n: np.full(n, 3.0),
}


def random_schedule(rng, n):
    limit = n // 2
    count = int(rng.integers(1, 4))
    picks = sorted(rng.choice(np.arange(1, limit), size=count, replace=False))
    return [int(v) for v in picks]


class TestSignalContainer:
    def test_bandwidth_is_half_length(self):
        s = Signal(np.zeros(10))
        assert type(s.bandwidth) is float and s.bandwidth == 5.0
        assert s.n == 10

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_odd_length_rejected(self, n):
        with pytest.raises(ValueError):
            Signal(np.zeros(n))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, math.inf]))


class TestL1Energy:
    def test_constant_signal(self):
        # the constant pair: all of its energy, 2, at DC
        assert l1_fourier_energy(Signal([1.0, 1.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 64])
    def test_impulse_energy_is_n(self, n):
        # an impulse has a flat spectrum: |s_hat(k)| = 1 at all n bins
        assert l1_fourier_energy(Signal(np.eye(n)[0])) == pytest.approx(float(n), rel=1e-15)

    def test_alternating_signal(self):
        # all energy at the top frequency
        assert l1_fourier_energy(Signal([1.0, -1.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_nyquist_bin_counts_once(self, n):
        # The rfft's last bin is the Nyquist bin n/2, which occurs once among
        # the n DFT bins; at small n it carries a large share of the energy.
        rng = np.random.default_rng(n)
        for _ in range(20):
            s = Signal(rng.standard_normal(n))
            want = float(np.sum(np.abs(np.fft.fft(s.samples))))
            assert abs(l1_fourier_energy(s) - want) <= 4 * np.finfo(float).eps * want

    def test_scaling_is_homogeneous(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(32)
        e1 = l1_fourier_energy(Signal(s))
        e2 = l1_fourier_energy(Signal(3.0 * s))
        assert e2 == pytest.approx(3.0 * e1, rel=1e-12)


class TestEnergyConservation:
    def test_trivial_split_conserves(self):
        rng = np.random.default_rng(3)
        s = random_signal(rng, 32)
        zero = Signal(np.zeros(32))
        d = Decomposition.from_parts([s], zero)
        report = check_energy_conservation(d)
        assert report.conserved
        assert report.conservation_gap == pytest.approx(0.0, abs=1e-14)

    def test_cancelling_pair_leaks_energy(self):
        rng = np.random.default_rng(4)
        s = random_signal(rng, 32)
        f = random_signal(rng, 32)
        minus_f = Signal(-f.samples)
        d = Decomposition.from_parts([f, minus_f], s)
        report = check_energy_conservation(d)
        assert not report.conserved
        expect_gap = 2.0 * l1_fourier_energy(f)
        assert report.conservation_gap == pytest.approx(expect_gap, rel=1e-10)
        assert len(report.unwanted_frequencies) > 0

    def test_report_energies_sum_to_total_plus_gap(self):
        rng = np.random.default_rng(5)
        s = random_signal(rng, 128)
        d = fif_decompose(s, [3, 9])
        report = check_energy_conservation(d)
        assert sum(report.component_energies) == pytest.approx(
            report.total_energy + report.conservation_gap, rel=1e-12
        )

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        d = fif_decompose(random_signal(np.random.default_rng(6), 32), [3])
        with pytest.raises(ValueError, match="tol"):
            check_energy_conservation(d, tol)

    def test_inconsistent_source_raises(self):
        s = Signal(np.ones(4))
        wrong = Signal(np.full(4, 2.0))
        d = Decomposition(components=(s,), trend=Signal(np.zeros(4)), source=wrong)
        with pytest.raises(InconsistentDecomposition):
            check_energy_conservation(d)

    def test_zero_signal(self):
        zero = Signal(np.zeros(8))
        d = fif_decompose(zero, [2])
        report = check_energy_conservation(d)
        assert report.total_energy == 0.0
        assert report.conserved

    @pytest.mark.parametrize("n", [64, 4096, 4098, 15838, 2**16])
    def test_one_batched_pass_matches_per_signal_transforms(self, n):
        # Oracle: one complex FFT per signal, magnitudes summed over all n
        # bins. The audit takes one batched rfft, keeps its n//2+1 bins as
        # the report's spectra and sums them with Hermitian weights, so it
        # rounds differently: energies, spectra and excesses (at all n bins)
        # must agree within eps * log2 n of their column's maximum (FFT
        # rounding grows like log2 n; at most 3.5 ulps seen here).
        # l1_fourier_energy shares the audit's energy sum, so that agreement
        # is exact.
        rng = np.random.default_rng(n)
        d = Decomposition.from_parts([rng.standard_normal(n) for _ in range(3)], rng.standard_normal(n))
        report = check_energy_conservation(d)
        bound = np.finfo(float).eps * math.log2(n)
        part_mags = [np.abs(np.fft.fft(part.samples)) for part in d.parts]
        shat = np.abs(np.fft.fft(d.source.samples))
        summed = np.zeros(n)
        for mags in part_mags:
            summed += mags
        assert report.total_energy == l1_fourier_energy(d.source)
        assert report.component_energies == tuple(l1_fourier_energy(p) for p in d.parts)
        for got, mags in zip((report.total_energy,) + report.component_energies, [shat] + part_mags):
            assert abs(got - float(np.sum(mags))) <= bound * float(np.sum(mags))
        m = n // 2 + 1
        assert report.signal_abs.shape == report.components_abs_sum.shape == (m,)
        assert np.max(np.abs(report.signal_abs - shat[:m])) <= bound * shat.max()
        assert np.max(np.abs(report.components_abs_sum - summed[:m])) <= bound * summed.max()
        excess = summed - shat
        hits = np.nonzero(excess > 1e-12 * shat.max())[0]
        assert hits.size and [k for k, _ in report.unwanted_frequencies] == hits.tolist()
        for k, e in report.unwanted_frequencies:
            assert abs(e - excess[k]) <= bound * summed.max()


class TestUnwantedOscillations:
    def test_cancelling_pair_flags_shared_bin(self):
        s = Signal([1.0, 0.0])
        f = Signal([1.0, 1.0])
        g = Signal([0.0, -1.0])
        d = Decomposition.from_parts([f, g], Signal(np.zeros(2)))
        assert d.source.samples == pytest.approx(s.samples)
        assert check_energy_conservation(d).unwanted_frequencies == ((0, 2.0),)

    def test_mirrored_bin_is_reported(self):
        # f and -f cancel, leaving an impulse trend with a flat spectrum; the
        # excess 2|f_hat| sits at bin 1 and at its conjugate mirror n - 1 = 7
        n = 8
        f = np.cos(2 * math.pi * np.arange(n) / n)
        d = Decomposition.from_parts([f, -f], np.eye(n)[0])
        flagged = check_energy_conservation(d).unwanted_frequencies
        assert [k for k, _ in flagged] == [1, 7]
        assert flagged[0][1] == flagged[1][1] == pytest.approx(8.0, rel=1e-14)

    def test_exact_split_not_flagged(self):
        rng = np.random.default_rng(6)
        s = random_signal(rng, 64)
        d = fif_decompose(s, [4, 11])
        assert check_energy_conservation(d).unwanted_frequencies == ()


class TestFifDecompose:
    def test_pure_tone_extracted_exactly(self):
        # tone at bin 20 sits on a transfer-function zero of the
        # halfwidth-2 moving average when n = 100, so one stage of
        # filtering removes it completely
        n, k0 = 100, 20
        t = np.arange(n) / n
        s = Signal(np.cos(2 * math.pi * k0 * t))
        d = fif_decompose(s, [2])
        assert len(d.components) == 1
        np.testing.assert_allclose(d.components[0].samples, s.samples, atol=1e-8)
        np.testing.assert_allclose(d.trend.samples, 0.0, atol=1e-8)

    def test_zero_signal_yields_zero_parts(self):
        d = fif_decompose(Signal(np.zeros(16)), [2, 5])
        for part in d.parts:
            np.testing.assert_array_equal(part.samples, 0.0)

    def test_meta_records_schedule(self):
        rng = np.random.default_rng(7)
        d = fif_decompose(random_signal(rng, 64), [3, 9], delta=1e-4, max_inner=150)
        assert d.meta["halfwidths"] == [3, 9]
        assert d.meta["delta"] == 1e-4
        assert d.meta["max_inner"] == 150
        assert len(d.meta["inner_iterations"]) == 2
        assert all(k >= 1 for k in d.meta["inner_iterations"])

    def test_non_convergence_reported_not_raised(self):
        # a mid-band tone damps by a fixed factor per pass, so one inner
        # step can never meet a tight delta
        n = 100
        t = np.arange(n) / n
        s = Signal(np.cos(2 * math.pi * 10 * t))
        d = fif_decompose(s, [1], delta=1e-8, max_inner=3)
        assert d.meta["converged"] == [False]
        assert d.meta["inner_iterations"] == [3]
        assert d.meta["achieved_delta"][0] > 1e-8
        report = check_energy_conservation(d)
        assert report.conserved

    @pytest.mark.parametrize(
        "bad", [[0], [-1], [3, 3], [5, 2], [8], [2.5]]
    )
    def test_bad_schedules_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            fif_decompose(Signal(np.zeros(16)), bad)

    def test_bad_tuning_rejected(self):
        s = Signal(np.zeros(16))
        with pytest.raises(ValueError):
            fif_decompose(s, [2], delta=0.0)
        with pytest.raises(ValueError):
            fif_decompose(s, [2], max_inner=0)
        with pytest.raises(ValueError):
            fif_decompose(s, [2], max_inner=2.5)

    @pytest.mark.parametrize(
        "kwargs, key",
        [({"max_inner": bad}, "max_inner") for bad in (math.inf, math.nan, 2.5, True)]
        + [({"filter_halfwidths": [bad]}, "halfwidths") for bad in (math.inf, math.nan, 2.5, True)],
    )
    def test_non_integral_counts_rejected_before_any_work(self, monkeypatch, kwargs, key):
        # inf used to raise OverflowError, and True ran as 1
        s = Signal(np.zeros(16))
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: pytest.fail("did work"))
        with pytest.raises(ValueError, match=key):
            fif_decompose(s, **{"filter_halfwidths": [2], **kwargs})

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            fif_decompose(random_signal(np.random.default_rng(7), 32), [3], delta=delta)

    def test_reconstruction_and_conservation_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.choice([32, 64, 128, 250]))
            s = random_signal(rng, n)
            d = fif_decompose(s, random_schedule(rng, n))
            total = d.trend.samples.copy()
            for c in d.components:
                total = total + c.samples
            np.testing.assert_allclose(total, s.samples, atol=1e-12)
            report = check_energy_conservation(d)
            assert report.conserved
            assert abs(report.conservation_gap) <= 1e-10 * max(report.total_energy, 1.0)
            assert report.unwanted_frequencies == ()

    def test_triangle_bound_for_arbitrary_splits(self):
        # any two-part split can only gain l1 spectral mass
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_signal(rng, 64)
            f = random_signal(rng, 64)
            rest = Signal(s.samples - f.samples)
            d = Decomposition.from_parts([f], rest)
            report = check_energy_conservation(d)
            assert report.conservation_gap >= -1e-10 * max(report.total_energy, 1.0)

    def test_different_schedules_differ(self):
        rng = np.random.default_rng(10)
        s = random_signal(rng, 128)
        d1 = fif_decompose(s, [2])
        d2 = fif_decompose(s, [5])
        dist = np.linalg.norm(d1.components[0].samples - d2.components[0].samples)
        assert dist > 1e-3 * np.linalg.norm(s.samples)
        for d in (d1, d2):
            assert check_energy_conservation(d).conserved

    @pytest.mark.parametrize("kind", sorted(FIF_SIGNALS))
    @pytest.mark.parametrize("n", [4, 4096, 2**16])
    def test_matches_pass_by_pass_oracle(self, n, kind):
        # n = 4 is the smallest length with a valid halfwidth (h < n/2);
        # achieved_delta is the closed form's, checked by the decimal test below
        s = Signal(FIF_SIGNALS[kind](n))
        halfwidths = [1] if n == 4 else [2, 8, 32]
        if n == 2**16:
            # every pass at this length costs the oracle; each value once
            grid = [(1e-3, 200), (1e-2, 2), (0.1, 200), (1e-12, 1)]
        else:
            grid = [(delta, cap) for delta in (1e-3, 1e-2, 0.1, 1e-12) for cap in (1, 2, 200)]
        for delta, cap in grid:
            comps, trend, meta, _ = fif_by_passes(s, halfwidths, delta, cap)
            d = fif_decompose(s, halfwidths, delta, cap)
            del meta["achieved_delta"]
            assert {k: v for k, v in d.meta.items() if k != "achieved_delta"} == meta, (delta, cap)
            assert_parts_close([p.samples for p in d.parts], comps + [trend], s)

    @pytest.mark.parametrize("kind", ["noise", "chirp"])
    @pytest.mark.parametrize("n", [4, 512])
    def test_achieved_delta_is_the_closed_form_ratio(self, n, kind):
        s = Signal(FIF_SIGNALS[kind](n))
        halfwidths = [1] if n == 4 else [2, 8, 32]
        for delta in (1e-3, 0.1, 1e-12):
            for cap in (1, 200):
                d = fif_decompose(s, halfwidths, delta, cap)
                _, _, meta, stages = fif_by_passes(s, halfwidths, delta, cap)
                assert d.meta["inner_iterations"] == meta["inner_iterations"]
                for got, passes, stage in zip(d.meta["achieved_delta"], meta["inner_iterations"], stages):
                    want = closed_form_ratio(*stage, passes)
                    assert abs(got - want) <= RATIO_RTOL * want, (delta, cap, got, want)
                assert d.meta["converged"] == [a <= delta for a in d.meta["achieved_delta"]]

    @pytest.mark.parametrize("n", [4096, 2**16])
    def test_constant_signal_is_all_trend(self, n, caplog):
        # Every stage's DC gain is exactly 1 (damp[0] = 0): pass 1 removes
        # nothing from the DC bin it leaves alone, pass 2 changes nothing.
        s = Signal(np.full(n, 3.0))
        deltas = (1e-3, 0.1) if n == 2**16 else (1e-3, 1e-2, 0.1, 1e-12)
        for delta in deltas:
            with caplog.at_level(logging.WARNING, logger="lportho"):
                d = fif_decompose(s, [2, 8, 32], delta, 200)
            assert d.meta["inner_iterations"] == [2, 2, 2]
            assert d.meta["converged"] == [True, True, True]
            assert d.meta["achieved_delta"] == [0.0, 0.0, 0.0]
            for c in d.components:
                assert np.array_equal(c.samples, np.zeros(n))
            assert np.array_equal(d.trend.samples, s.samples)
        assert not caplog.records

    @pytest.mark.parametrize("n", [1000, 4096, 2**16])
    def test_moving_average_transfer_is_the_dirichlet_kernel(self, n):
        # Against (1 + 2 sum_{j<=L} cos(2 pi jk/n)) / (2L+1) at the n//2+1
        # rfft bins, summed in extended precision with exact angle indices
        # jk mod n. The DC gain must be exactly 1 at every halfwidth;
        # elsewhere FFT rounding grows like log2 n (at most 2.2 ulps of 1
        # seen here).
        k = np.arange(n // 2 + 1)
        two_pi_over_n = 2 * np.arccos(np.longdouble(-1)) / n
        dirichlet = np.ones(k.size, dtype=np.longdouble)
        for hw in range(1, 65):
            dirichlet += 2 * np.cos((hw * k % n).astype(np.longdouble) * two_pi_over_n)
            got = _moving_average_transfer(n, hw)
            assert got[0] == 1.0, hw
            err = np.abs(got.astype(np.longdouble) - dirichlet / (2 * hw + 1))
            assert float(np.max(err)) <= np.finfo(float).eps * math.log2(n), hw

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 29])
    def test_delta_at_a_pass_ratio_matches_oracle(self, k):
        # The ratio is nonincreasing in the pass count, so a delta between the
        # extended-precision ratios of passes k - 1 and k stops at pass k.
        # Deltas RATIO_RTOL either side of the ratio of pass k, where the
        # float ratio cannot round across them, stop where the oracle says.
        s = Signal(np.random.default_rng(k).standard_normal(512))
        _, _, _, stages = fif_by_passes(s, [3], 1e-300, 1)
        exact = {p: closed_form_ratio(*stages[0], p) for p in (k - 1, k, k + 1) if p >= 1}
        above, below = exact[k] * (1 + RATIO_RTOL), exact[k] * (1 - RATIO_RTOL)
        assert exact[k + 1] <= below and exact.get(k - 1, math.inf) > above
        # and delta equal to, or one ulp above, the ratio fif_decompose
        # reports for pass k stops at pass k; one ulp below it, at k + 1
        ratio = fif_decompose(s, [3], 1e-300, k).meta["achieved_delta"][0]
        assert abs(ratio - exact[k]) <= RATIO_RTOL * exact[k]
        cells = ((above, k), (below, k + 1), (ratio, k), (np.nextafter(ratio, 1.0), k), (np.nextafter(ratio, 0.0), k + 1))
        for delta, passes in cells:
            d = fif_decompose(s, [3], float(delta), 200)
            assert d.meta["inner_iterations"] == [passes], delta
            assert d.meta["converged"] == [True]
            comps, trend, _, _ = fif_by_passes(s, [3], 1e-300, passes)
            assert_parts_close([p.samples for p in d.parts], comps + [trend], s)

    def test_chirp_at_two_to_the_twenty(self):
        # The benchmark's signal (chirp plus 0.1 seeded noise) at 2^20 against
        # the complex closed form at the reported pass counts: fft, then
        # rhat * damp**N per stage, then ifft.
        n, halfwidths = 2**20, [2, 8, 32]
        s = Signal(FIF_SIGNALS["chirp"](n))
        d = fif_decompose(s, halfwidths)
        assert d.meta["inner_iterations"] == [200, 200, 123]
        report = check_energy_conservation(d)
        assert report.conserved and report.unwanted_frequencies == ()
        rhat, parts = np.fft.fft(s.samples), []
        for hw, passes in zip(halfwidths, d.meta["inner_iterations"]):
            phihat = rhat * (1.0 - full_spectrum_tau(n, hw)) ** passes
            rhat = rhat - phihat
            parts.append(np.fft.ifft(phihat).real)
        parts.append(np.fft.ifft(rhat).real)
        assert_parts_close([p.samples for p in d.parts], parts, s)

    def test_length_two_admits_no_stage(self):
        with pytest.raises(ValueError):
            fif_decompose(Signal([1.0, -1.0]), [1])

    @pytest.mark.parametrize("kind", ["noise", "chirp"])
    def test_power_of_two_scaling_is_exact(self, kind):
        # fif(2^k s) = 2^k fif(s) exactly while samples and spectra stay
        # normal: the stopping rule does not depend on the amplitude
        s = Signal(FIF_SIGNALS[kind](4096))
        base = fif_decompose(s, [2, 8, 32])
        for k in (-560, -200, 200, 500, 505):
            d = fif_decompose(Signal(np.ldexp(s.samples, k)), [2, 8, 32])
            assert d.meta == base.meta, k
            for got, want in zip(d.parts, base.parts):
                assert np.array_equal(got.samples, np.ldexp(want.samples, k)), k

    @pytest.mark.parametrize("cap", [150.0, np.int64(150)], ids=["float", "int64"])
    def test_integral_max_inner_is_stored_as_int(self, cap):
        s = Signal(np.random.default_rng(4).standard_normal(64))
        want = fif_decompose(s, [3], max_inner=150)
        d = fif_decompose(s, [3], max_inner=cap)
        assert d.meta == want.meta
        assert type(d.meta["max_inner"]) is int
        assert all(type(v) is int for v in d.meta["inner_iterations"])
        assert dumps_json(decomposition_to_dict(d)) == dumps_json(decomposition_to_dict(want))

    def test_stage_at_cap_logs_one_warning(self, caplog):
        n = 100
        t = np.arange(n) / n
        s = Signal(np.cos(2 * math.pi * 10 * t))
        with caplog.at_level(logging.WARNING, logger="lportho"):
            d = fif_decompose(s, [1, 3], delta=1e-8, max_inner=3)
        assert d.meta["converged"] == [False, False]
        warned = [r for r in caplog.records if r.name == "lportho" and r.levelno == logging.WARNING]
        assert len(warned) == 2
        for record, hw, ach in zip(warned, [1, 3], d.meta["achieved_delta"]):
            message = record.getMessage()
            assert f"halfwidth {hw} " in message
            assert f"{ach:.3g}" in message

    def test_converged_stage_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lportho"):
            d = fif_decompose(Signal(np.zeros(16)), [2, 5])
        assert d.meta["converged"] == [True, True]
        assert not caplog.records


def full_fft_angles(d):
    """Oracle: atan2(1, ||F+G||_1 - ||F||_1 - ||G||_1) over all n bins of the
    parts' complex FFTs, and the bound 1e-12 (E1(f) + E1(g)) for each pair."""
    spectra = [np.fft.fft(p.samples) for p in d.parts]
    e1 = [float(np.sum(np.abs(F))) for F in spectra]
    m = len(spectra)
    want, bound = np.zeros((m, m)), np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                defect = float(np.sum(np.abs(spectra[i] + spectra[j]))) - e1[i] - e1[j]
                want[i, j] = math.atan2(1.0, defect)
                bound[i, j] = 1e-12 * (e1[i] + e1[j])
    return want, bound


class TestPairwiseAngles:
    @pytest.mark.parametrize("n", [2, 6, 128])
    def test_frequency_angles_match_the_full_fft(self, n):
        # f and -f are far from L1-orthogonal (defect -2 E1(f), an obtuse
        # angle); the random parts and the trend give angles in between.
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n)
        d = Decomposition.from_parts([f, -f, rng.standard_normal(n)], rng.standard_normal(n))
        got = pairwise_l1_angles(d, domain="frequency")
        want, bound = full_fft_angles(d)
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(got, got.T) and np.all(np.diag(got) == 0.0)
        assert got[0, 1] == pytest.approx(math.atan2(1.0, -2.0 * l1_fourier_energy(Signal(f))), abs=1e-12)
        assert got[0, 1] > math.pi / 2

    def test_frequency_domain_angles_are_right(self):
        rng = np.random.default_rng(11)
        s = random_signal(rng, 128)
        d = fif_decompose(s, [3, 9, 20])
        mat = pairwise_l1_angles(d, domain="frequency")
        k = len(d.parts)
        assert mat.shape == (k, k)
        off = mat[~np.eye(k, dtype=bool)]
        np.testing.assert_allclose(off, math.pi / 2, atol=1e-10)

    def test_cancelling_parts_obtuse_in_time(self):
        f = Signal([1.0, 0.0])
        d = Decomposition.from_parts([f, Signal([-1.0, 0.0]), Signal([2.0, 0.0])], Signal(np.zeros(2)))
        mat = pairwise_l1_angles(d, domain="time")
        # f and -f: defect -2, arccot(-2)
        assert mat[0, 1] == pytest.approx(math.pi - math.atan(0.5), abs=1e-12)
        assert mat[1, 0] == mat[0, 1]

    def test_unknown_domain_rejected(self):
        d = fif_decompose(Signal(np.zeros(8)), [2])
        with pytest.raises(ValueError):
            pairwise_l1_angles(d, domain="cepstral")


class TestChirpPlusTone:
    def test_shape_and_bandwidth(self):
        s = chirp_plus_tone(500)
        assert s.n == 500
        assert s.bandwidth == 250.0

    @pytest.mark.parametrize("n", [2, 500, 2**16])
    def test_samples_are_the_tone_plus_the_chirp(self, n):
        # a tone at max(1, n/50) and a chirp sweeping n/10 to n/5, bit for bit
        t = np.arange(n) / n
        f0, f1 = n / 10.0, n / 5.0
        tone = np.cos(2.0 * np.pi * max(1.0, n / 50.0) * t)
        chirp = np.cos(2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t * t))
        np.testing.assert_array_equal(chirp_plus_tone(n).samples, tone + chirp)

    def test_decomposition_conserves(self):
        s = chirp_plus_tone(256)
        d = fif_decompose(s, [2, 6])
        report = check_energy_conservation(d)
        assert report.conserved
        assert report.unwanted_frequencies == ()

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            chirp_plus_tone(255)


class TestSerialization:
    def test_signal_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e16, 1e17, 1.7976931348623157e308, 3.0, -7.0]
        s = Signal(np.concatenate([random_signal(rng, 40).samples, edges]))
        path = tmp_path / "sig.csv"
        write_signal_csv(path, s)
        assert path.read_bytes() == ("# B=25\n" + "".join(format(float(v), ".17g") + "\n" for v in s.samples)).encode()
        back = read_signal_csv(path)
        np.testing.assert_array_equal(back.samples, s.samples)
        assert back.bandwidth == s.bandwidth

    @pytest.mark.parametrize("header", ["0", "nan", "abc", "inf", "-512", "511", "513", "1024", "512.5"])
    def test_signal_csv_header_must_name_half_the_length(self, tmp_path, header):
        # n samples fix the bandwidth at n/2, so B=0 is as wrong as any other value
        path = tmp_path / "sig.csv"
        path.write_text(f"# B={header}\n" + "1.0\n" * 1024)
        with pytest.raises(ValueError):
            read_signal_csv(path)

    @pytest.mark.parametrize("header", ["512", "512.0", "5.12e2"])
    def test_signal_csv_header_accepts_half_the_length(self, tmp_path, header):
        path = tmp_path / "sig.csv"
        path.write_text(f"# B={header}\n" + "1.0\n" * 1024)
        s = read_signal_csv(path)
        assert s.n == 1024 and s.bandwidth == 512.0

    def test_signal_csv_header_optional(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0\n-2.0\n3.0\n4.0\n")
        s = read_signal_csv(path)
        assert s.n == 4
        assert s.bandwidth == 2.0

    def test_decomposition_json_round_trip(self):
        rng = np.random.default_rng(13)
        s = random_signal(rng, 64)
        d = fif_decompose(s, [3, 7])
        doc = decomposition_to_dict(d)
        back = decomposition_from_dict(doc)
        r1 = check_energy_conservation(d)
        r2 = check_energy_conservation(back)
        # the rebuilt source is the part sum, equal to the original input
        # only up to summation rounding, and the gap inherits that jitter
        assert r1.conserved and r2.conserved
        scale = max(r1.total_energy, 1.0)
        assert abs(r1.conservation_gap - r2.conservation_gap) <= 1e-10 * scale
        np.testing.assert_allclose(back.source.samples, d.source.samples, atol=1e-12)
        assert back.meta["halfwidths"] == d.meta["halfwidths"]

    @pytest.mark.parametrize("doc, kind", [(5, "int"), (None, "NoneType"), ("x", "str"), ([1, 2], "list")])
    def test_non_object_json_rejected(self, doc, kind):
        with pytest.raises(ValueError, match=f"must be a JSON object, got {kind}$"):
            decomposition_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"components": 5, "trend": [1, 2]}, "components"),
            ({"components": [5], "trend": [1, 2]}, "components"),
            ({"components": [[1, "a"]], "trend": [1, 2]}, "components"),
            ({"components": [[[1], 2]], "trend": [1, 2]}, "components"),
            ({"components": [[True, False]], "trend": [1, 2]}, "components"),
            ({"components": {"a": [1, 2]}, "trend": [1, 2]}, "components"),
            ({"components": [[1, 2]], "trend": None}, "trend"),
            ({"components": [[1, 2]], "trend": [[1, 2]]}, "trend"),
            ({"components": [[1, 2]], "trend": [1, 2], "meta": 5}, "meta"),
            ({"components": [[1, 2]], "trend": [1, 2], "meta": [[1, 2]]}, "meta"),
            ({"components": [[1, 2]], "trend": [1, 2], "meta": None}, "meta"),
        ],
    )
    def test_field_of_wrong_json_type_rejected(self, doc, field):
        with pytest.raises(ValueError, match=f"^decomposition JSON '{field}' must be "):
            decomposition_from_dict(doc)

    def test_energy_report_dict_fields(self):
        rng = np.random.default_rng(14)
        d = fif_decompose(random_signal(rng, 32), [4])
        doc = energy_report_to_dict(check_energy_conservation(d))
        for key in (
            "total_energy",
            "component_energies",
            "conservation_gap",
            "conserved",
            "tol",
            "unwanted_frequencies",
        ):
            assert key in doc
        assert isinstance(doc["conserved"], bool)


class TestEnergyReportType:
    def test_is_immutable(self):
        rng = np.random.default_rng(15)
        report = check_energy_conservation(fif_decompose(random_signal(rng, 16), [2]))
        assert isinstance(report, EnergyReport)
        with pytest.raises(AttributeError):
            report.total_energy = 0.0
