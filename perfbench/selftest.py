"""Self-test of the benchmark's correctness checks.

Each test hands a check one output of lportho that is right, which the
check must accept, and the same output made wrong in one place, which it
must reject. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from lportho import signal_decomposition as sd  # noqa: E402
from lportho import toeplitz_preconditioning as tp  # noqa: E402


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def _small_decomposition():
    samples = np.random.default_rng(7).standard_normal(512)
    d = sd.fif_decompose(sd.Signal(samples), [2, 8])
    return samples, d, [c.samples for c in d.components] + [d.trend.samples]


def test_table_cell_outside_tolerance():
    for params, table_check, cell in (
        (checks.GENTLE, checks.check_gentle_table, (400, 3.0)),
        (checks.STIFF, checks.check_stiff_table, (700, 1.6)),
    ):
        result = tp.run_benchmark(tp.BenchmarkConfig(*params, checks.N_GRID, checks.P_GRID))
        cells = checks.parse_table_csv(tp.render_table_csv(result))
        table_check(cells)
        assert rejects(table_check, {**cells, cell: cells[cell] + 5}), (params, cell)
    stiff_cells = {**cells, (100, 1.4): 40}
    assert rejects(checks.check_stiff_table, stiff_cells), "a stiff p = 1.4 cell that converges"


def test_decomposition_with_a_part_dropped():
    samples, d, parts = _small_decomposition()
    report = sd.energy_report_to_dict(sd.check_energy_conservation(d))
    checks.check_energy_report(report, samples, parts)
    assert rejects(checks.check_energy_report, report, samples, parts[1:])


def test_converged_report_with_true_residual_above_tol():
    n = 1000
    T = tp.build_toeplitz(tp.ToeplitzSymbol.from_model(*checks.GENTLE), n)
    b = np.ones(n)
    report = tp.pcg_solve(T, b, tp.lp_circulant_minimizer(T, 1.0))
    true_res = checks.banded_relative_residual(checks.GENTLE, report.solution, b)
    checks.check_status_honest(report.status, true_res, 1e-9)
    off = checks.banded_relative_residual(checks.GENTLE, report.solution + 1e-6, b)
    assert report.status == "converged" and off > 1e-9
    assert rejects(checks.check_status_honest, report.status, off, 1e-9)


def test_spectrum_csv_off_the_closed_form():
    n, p = 100, 1.6
    lam = tp.circulant_spectrum(tp.lp_circulant_minimizer(tp.build_toeplitz(tp.ToeplitzSymbol.from_model(*checks.STIFF), n), p))
    rows = ["j,lambda"] + [f"{j},{float(v.real)!r}" for j, v in enumerate(lam)]
    checks.check_spectrum_csv("\n".join(rows), n, p, checks.STIFF)
    rows[5] = f"4,{float(lam[4].real) * (1 + 1e-6)!r}"
    assert rejects(checks.check_spectrum_csv, "\n".join(rows), n, p, checks.STIFF)


def test_p_tilde_closed_form():
    n = 1000
    T = tp.build_toeplitz(tp.ToeplitzSymbol.from_model(*checks.STIFF), n)
    assert tp.select_p_tilde(T, checks.P_GRID) == checks.expected_p_tilde(n, checks.STIFF) == 1.6
    assert checks.expected_p_tilde(n, checks.GENTLE) == 1.0


def test_not_converged_report_that_meets_tol():
    checks.check_status_honest("max_iterations", 1e-6, 1e-9)
    assert rejects(checks.check_status_honest, "max_iterations", 1e-12, 1e-9)


def test_audit_report_or_spectrum_comparison_changed():
    samples, d, parts = _small_decomposition()
    report = sd.energy_report_to_dict(sd.check_energy_conservation(d))
    checks.check_reports_equal(dict(report), report)
    assert rejects(checks.check_reports_equal, {**report, "component_energies": report["component_energies"][::-1]}, report)
    shat = np.abs(np.fft.fft(samples))
    stacked = np.sum([np.abs(np.fft.fft(part)) for part in parts], axis=0)
    rows = ["xi,signal_abs,components_abs_sum"] + [f"{k},{float(shat[k])!r},{float(stacked[k])!r}" for k in range(len(samples))]
    checks.check_spectrum_comparison("\n".join(rows), samples, parts)
    rows[3] = f"2,{float(shat[2])!r},{float(stacked[2]) * 1.001!r}"
    assert rejects(checks.check_spectrum_comparison, "\n".join(rows), samples, parts)


def test_wrong_angle():
    _, d, parts = _small_decomposition()
    time_angles = sd.pairwise_l1_angles(d, "time")
    freq_angles = sd.pairwise_l1_angles(d, "frequency")
    checks.check_angles(parts, time_angles, freq_angles)
    for which in ("time", "frequency"):
        bad = (time_angles if which == "time" else freq_angles).copy()
        bad[0, 2] += 1e-3
        bad[2, 0] += 1e-3
        args = (parts, bad, freq_angles) if which == "time" else (parts, time_angles, bad)
        assert rejects(checks.check_angles, *args), which


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
