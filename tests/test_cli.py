import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lportho._serialize as serialize
from lportho._serialize import CHUNK, format_float, table_writer
from lportho.cli import _emit_report_files, _spectrum_comparison, _spectrum_csv, main
from lportho.signal_decomposition import (
    Decomposition,
    EnergyReport,
    Signal,
    check_energy_conservation,
    chirp_plus_tone,
    fif_decompose,
    l1_fourier_energy,
    pairwise_l1_angles,
    write_signal_csv,
)
from lportho.toeplitz_preconditioning import ToeplitzSymbol, build_toeplitz, lp_circulant_minimizer


def written(writer):
    """The text a Writer writes."""
    parts = []
    writer(parts.append)
    return "".join(parts)


def write_vector(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngleAndOrtho:
    def test_angle_json(self, tmp_path, capsys):
        f = write_vector(tmp_path / "f.csv", [1.0])
        g = write_vector(tmp_path / "g.csv", [-1.0])
        code, out, _ = run_cli(capsys, ["angle", f, g, "--p", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["defect"] == pytest.approx(-2.0, abs=1e-14)
        assert doc["angle"] == pytest.approx(math.pi - math.atan(0.5), abs=1e-12)
        assert doc["orthogonal"] is False

    def test_ortho_disjoint_supports(self, tmp_path, capsys):
        f = write_vector(tmp_path / "f.csv", [5.0, 0.0])
        g = write_vector(tmp_path / "g.csv", [0.0, -7.0])
        code, out, _ = run_cli(capsys, ["ortho", f, g, "--p", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["orthogonal"] is True
        assert doc["wip"] == 0
        assert doc["p"] == 1.0

    def test_mismatched_lengths_exit_code(self, tmp_path, capsys):
        f = write_vector(tmp_path / "f.csv", [1.0, 2.0])
        g = write_vector(tmp_path / "g.csv", [1.0])
        code, _, err = run_cli(capsys, ["angle", f, g])
        assert code == 1
        assert "error" in err


class TestEnergy:
    def test_constant_signal(self, tmp_path, capsys):
        s = write_vector(tmp_path / "s.csv", [1.0, 1.0])
        code, out, _ = run_cli(capsys, ["energy", s])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 2, "bandwidth": 1, "energy": 2}

    @pytest.mark.parametrize("header", ["0", "nan", "abc", "3"])
    def test_header_other_than_half_the_length(self, tmp_path, capsys, header):
        s = tmp_path / "s.csv"
        s.write_text(f"# B={header}\n1.0\n1.0\n")
        code, out, err = run_cli(capsys, ["energy", str(s)])
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["energy", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in err


@pytest.fixture
def signal_file(tmp_path):
    rng = np.random.default_rng(42)
    s = Signal(rng.standard_normal(64))
    path = tmp_path / "signal.csv"
    write_signal_csv(path, s)
    return str(path), s


class TestDecompose:
    def test_end_to_end(self, tmp_path, capsys, signal_file):
        path, s = signal_file
        out_dir = tmp_path / "dec"
        code, out, _ = run_cli(
            capsys,
            ["decompose", path, "--halfwidths", "3,9", "--out-dir", str(out_dir)],
        )
        assert code == 0
        report = json.loads(out)
        assert report["conserved"] is True
        assert report["total_energy"] == pytest.approx(l1_fourier_energy(s), rel=1e-12)
        assert len(report["component_energies"]) == 3  # two bands plus trend
        for name in (
            "decomposition.json",
            "energy_report.json",
            "energy_report.txt",
            "spectrum_comparison.csv",
            "manifest.json",
        ):
            assert (out_dir / name).is_file()
        comparison = (out_dir / "spectrum_comparison.csv").read_text().splitlines()
        assert comparison[0] == "xi,signal_abs,components_abs_sum"
        assert len(comparison) == s.n + 1

    def test_manifest_contents(self, tmp_path, capsys, signal_file):
        path, _ = signal_file
        out_dir = tmp_path / "dec"
        run_cli(capsys, ["decompose", path, "--halfwidths", "2", "--out-dir", str(out_dir)])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["parameters"]["halfwidths"] == [2]
        assert manifest["inputs"] == [path]
        assert set(manifest["outputs"]) == {
            "decomposition.json",
            "energy_report.json",
            "energy_report.txt",
            "spectrum_comparison.csv",
        }

    def test_spectrum_comparison_rows(self, tmp_path, capsys, signal_file):
        path, s = signal_file
        out_dir = tmp_path / "dec"
        run_cli(capsys, ["decompose", path, "--halfwidths", "3,9", "--out-dir", str(out_dir)])
        doc = json.loads((out_dir / "decomposition.json").read_text())
        shat = np.abs(np.fft.fft(s.samples))
        summed = np.zeros(s.n)
        for part in doc["components"] + [doc["trend"]]:
            summed += np.abs(np.fft.fft(part))
        text = (out_dir / "spectrum_comparison.csv").read_text()
        header, *lines = text.splitlines()
        assert header == "xi,signal_abs,components_abs_sum" and text.endswith("\n")
        xi, signal_abs, components_abs_sum = zip(*(line.split(",") for line in lines))
        assert xi == tuple(str(k) for k in range(s.n))
        # the oracle's per-signal complex FFTs round differently from the
        # audit's rfft: FFT rounding grows like log2 n
        bound = np.finfo(float).eps * math.log2(s.n)
        for column, want in ((signal_abs, shat), (components_abs_sum, summed)):
            got = np.array(column, dtype=float)
            assert [format_float(v) for v in got] == list(column)
            assert np.max(np.abs(got - want)) <= bound * want.max()

    @pytest.mark.parametrize("n", [2, 4, 6, 2 * CHUNK + 2])
    def test_spectrum_comparison_formats_each_unfolded_row(self, n):
        # The report holds bins 0..n//2, each formatted once; the oracle
        # unfolds them (bin n-k is bin k) and formats all n rows.
        rng = np.random.default_rng(n)
        report = check_energy_conservation(Decomposition.from_parts([rng.standard_normal(n)], rng.standard_normal(n)))
        unfolded = [np.concatenate((s, s[-2:0:-1])).tolist() for s in (report.signal_abs, report.components_abs_sum)]
        rows = zip(*unfolded)
        want = "".join(f"{xi},{format_float(a)},{format_float(b)}\n" for xi, (a, b) in enumerate(rows))
        got = written(_spectrum_comparison(report))
        # compared as lines: a failing comparison of long texts is slow to explain
        assert got.splitlines(keepends=True) == ("xi,signal_abs,components_abs_sum\n" + want).splitlines(keepends=True)

    def test_deterministic_outputs(self, tmp_path, capsys, signal_file):
        path, _ = signal_file
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_cli(capsys, ["decompose", path, "--halfwidths", "3,9", "--out-dir", str(d)])
        for name in ("decomposition.json", "energy_report.json", "spectrum_comparison.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_bad_schedule_exit_code(self, tmp_path, capsys, signal_file):
        path, _ = signal_file
        code, _, err = run_cli(
            capsys, ["decompose", path, "--halfwidths", "9,3", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error" in err


class TestAudit:
    def test_round_trip_confirms_decomposition(self, tmp_path, capsys, signal_file):
        path, _ = signal_file
        out_dir = tmp_path / "dec"
        _, dec_out, _ = run_cli(
            capsys, ["decompose", path, "--halfwidths", "3,9", "--out-dir", str(out_dir)]
        )
        dec_report = json.loads(dec_out)
        code, out, _ = run_cli(capsys, ["audit", str(out_dir / "decomposition.json")])
        assert code == 0
        audit_report = json.loads(out)
        assert audit_report["conserved"] is True
        assert audit_report["total_energy"] == pytest.approx(
            dec_report["total_energy"], rel=1e-12
        )
        assert audit_report["component_energies"] == pytest.approx(
            dec_report["component_energies"], rel=1e-12
        )

    def test_out_dir_writes_back_the_decompose_bytes(self, tmp_path, capsys, signal_file):
        path, _ = signal_file
        dec, aud = tmp_path / "dec", tmp_path / "aud"
        run_cli(capsys, ["decompose", path, "--halfwidths", "3,9", "--out-dir", str(dec)])
        code, _, _ = run_cli(capsys, ["audit", str(dec / "decomposition.json"), "--out-dir", str(aud)])
        assert code == 0
        assert (aud / "decomposition.json").read_bytes() == (dec / "decomposition.json").read_bytes()
        manifest = json.loads((aud / "manifest.json").read_text())
        assert manifest["outputs"] == json.loads((dec / "manifest.json").read_text())["outputs"]

    def test_foreign_json_is_written_back_verbatim(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        doc = {"trend": [1, 2, 3, 4], "components": [rng.standard_normal(4).tolist()], "meta": {"by": "x"}}
        source = tmp_path / "foreign.json"
        source.write_bytes(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        code, _, _ = run_cli(capsys, ["audit", str(source), "--out-dir", str(tmp_path / "aud")])
        assert code == 0
        assert (tmp_path / "aud" / "decomposition.json").read_bytes() == source.read_bytes()

    def test_audit_into_the_input_directory_leaves_the_input(self, tmp_path, capsys):
        source = tmp_path / "decomposition.json"
        original = b'{"components": [[1.0, -1.0, 0.5, 2]], "trend": [0, 0, 1, 1]}'
        source.write_bytes(original)
        code, out, _ = run_cli(capsys, ["audit", str(source), "--out-dir", str(tmp_path)])
        assert code == 0
        assert source.read_bytes() == original
        assert json.loads((tmp_path / "energy_report.json").read_text()) == json.loads(out)

    def test_flags_energy_leak(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(32)
        doc = {
            "components": [list(f), list(-f)],
            "trend": list(rng.standard_normal(32)),
        }
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["audit", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["conserved"] is False
        assert report["unwanted_frequencies"]

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["audit", str(path)])
        assert code == 1
        assert "error" in err

    def test_missing_keys_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        code, _, _ = run_cli(capsys, ["audit", str(path)])
        assert code == 1


class TestPrecondBench:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_small_benchmark(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [100], "p_list": [1.0]},
        )
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            capsys, ["precond-bench", "--config", cfg, "--out-dir", str(out_dir)]
        )
        assert code == 0
        table = (out_dir / "table.csv").read_text().splitlines()
        assert table[0].split(",") == ["n", "p=1", "n. p."]
        assert table[1].split(",")[0] == "100"
        assert table[1].split(",")[1] == "3"
        assert (out_dir / "spectra" / "spectrum_n100_p1.csv").is_file()
        assert "n. p." in out  # stdout carries the markdown table
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "precond-bench"
        assert manifest["parameters"]["n_list"] == [100]

    def test_workers_do_not_change_results(self, tmp_path, capsys):
        # --workers still parses, and is ignored: the grid runs serially
        cfg = self.write_config(
            tmp_path,
            {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [64, 100], "p_list": [1.0, 2.0]},
        )
        tables = []
        for name, flags in (("w1", ["--workers", "1"]), ("w4", ["--workers", "4"]), ("none", [])):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, ["precond-bench", "--config", cfg, "--out-dir", str(out_dir), *flags])
            assert code == 0
            tables.append((out_dir / "table.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_spectra_at_an_odd_n_across_block_seams(self, tmp_path, capsys):
        # Each spectrum is written from its n//2+1 distinct eigenvalues; the
        # oracle unfolds them into all n and formats those as one table.
        n = 2 * CHUNK + 1
        cfg = self.write_config(tmp_path, {"alpha": 0, "beta": 2, "gamma": 8, "n_list": [n], "p_list": [1.0, 2.0], "correction": "off"})
        out_dir = tmp_path / "bench"
        assert run_cli(capsys, ["precond-bench", "--config", cfg, "--out-dir", str(out_dir)])[0] == 0
        T = build_toeplitz(ToeplitzSymbol.from_model(0, 2, 8), n)
        for p in (1.0, 2.0):
            half = lp_circulant_minimizer(T, p).half_eigenvalues
            lam = np.concatenate((half, half[1 : (n + 1) // 2][::-1]))  # lambda_(n-j) = lambda_j
            want = written(table_writer("j,lambda\n", "%d,%.17g\n", range(n), lam))
            assert (out_dir / "spectra" / f"spectrum_n{n}_p{p:g}.csv").read_text().splitlines(keepends=True) == want.splitlines(keepends=True)

    BAD_VALUES = [("alpha", "1"), ("alpha", [1]), ("tol", "1e-3"), ("maxit", 2.5), ("n_list", [16.7]), ("p_list", [None]), ("seed", True)]

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=[f"{k}={v!r}" for k, v in BAD_VALUES])
    def test_bad_config_value_is_an_error(self, tmp_path, capsys, key, value):
        doc = {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [16], "p_list": [2.0], key: value}
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(capsys, ["precond-bench", "--config", self.write_config(tmp_path, doc), "--out-dir", str(out_dir)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and key in err
        assert not out_dir.exists()

    def test_correction_override(self, tmp_path, capsys):
        doc = {"alpha": 0, "beta": 2, "gamma": 8, "n_list": [100], "p_list": [1.0]}
        out_raw = tmp_path / "raw"
        run_cli(capsys, ["precond-bench", "--config", self.write_config(tmp_path, doc), "--out-dir", str(out_raw)])
        raw_cell = (out_raw / "table.csv").read_text().splitlines()[1].split(",")[1]
        assert raw_cell == "#"
        out_fixed = tmp_path / "fixed"
        cfg = self.write_config(tmp_path, {**doc, "correction": "on"})
        run_cli(capsys, ["precond-bench", "--config", cfg, "--out-dir", str(out_fixed)])
        fixed_cell = (out_fixed / "table.csv").read_text().splitlines()[1].split(",")[1]
        assert fixed_cell != "#"
        assert int(fixed_cell) > 0

    def test_tol_override_changes_counts(self, tmp_path, capsys):
        doc = {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [100], "p_list": [10.0]}
        counts = {}
        for tol, d in ((None, "tight"), (1e-4, "loose")):
            out_dir = tmp_path / d
            cfg = self.write_config(tmp_path, doc if tol is None else {**doc, "tol": tol})
            run_cli(capsys, ["precond-bench", "--config", cfg, "--out-dir", str(out_dir)])
            counts[d] = int((out_dir / "table.csv").read_text().splitlines()[1].split(",")[1])
        assert counts["loose"] < counts["tight"]

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--correction", "on"], ["--tol", "1e-4"]])
    def test_config_keys_are_not_flags(self, tmp_path, capsys, flag):
        # seed, correction and tol are set in the config file only
        cfg = self.write_config(tmp_path, {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [8], "p_list": [2]})
        out_dir = tmp_path / "bench"
        with pytest.raises(SystemExit) as excinfo:
            main(["precond-bench", "--config", cfg, "--out-dir", str(out_dir), *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_indefinite_operator_renders_failed_cells(self, tmp_path, capsys):
        # alpha = -1 makes every T indefinite: each cell fails with a status
        cfg = self.write_config(tmp_path, {"alpha": -1, "beta": 2, "gamma": 3, "n_list": [16, 100], "p_list": [1, 2]})
        out_dir = tmp_path / "bench"
        code, _, err = run_cli(capsys, ["precond-bench", "--config", cfg, "--out-dir", str(out_dir)])
        assert (code, err) == (0, "")
        assert (out_dir / "table.csv").read_text() == "n,p=1,p=2,n. p.\n16,#,#,#\n100,#,#,#\n"

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"alpha": 1, "beta": 2})
        code, _, err = run_cli(
            capsys, ["precond-bench", "--config", cfg, "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error" in err

    def test_negative_maxit_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"alpha": 1, "beta": 2, "gamma": 3, "n_list": [8], "p_list": [2], "maxit": -2}
        )
        code, _, err = run_cli(
            capsys, ["precond-bench", "--config", cfg, "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1
        assert "maxit" in err


class TestSpectrum:
    def test_spectrum_csv_rows(self):
        # The n//2+1 distinct eigenvalues, unfolded by the oracle
        # (lambda_(n-j) is lambda_j) and formatted one row at a time.
        rng = np.random.default_rng(5)
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e16, 1e17, 1.7976931348623157e308, 3.0]
        half = np.concatenate([rng.standard_normal(10), edges, np.negative(edges)])
        for n in (2 * half.size - 2, 2 * half.size - 1):
            lam = [half[min(j, n - j)] for j in range(n)]
            rows = [f"{j},{format_float(v)}" for j, v in enumerate(lam)]
            assert written(_spectrum_csv(n, half)) == "j,lambda\n" + "".join(r + "\n" for r in rows)

    def test_diagnostic_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "spec"
        code, out, _ = run_cli(
            capsys,
            [
                "spectrum", "--alpha", "0", "--beta", "2", "--gamma", "8",
                "--n", "64", "--p", "1.6", "--out-dir", str(out_dir),
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["corrected"] is False
        assert doc["min_eigenvalue"] > 0
        assert doc["negative_eigenvalue_count"] == 0
        assert doc["cluster_fractions"] is not None
        assert (out_dir / "circulant_spectrum.csv").is_file()
        assert (out_dir / "preconditioned_spectrum.csv").is_file()

    def test_correction_flag(self, tmp_path, capsys):
        out_dir = tmp_path / "spec"
        code, out, _ = run_cli(
            capsys,
            [
                "spectrum", "--alpha", "0", "--beta", "2", "--gamma", "8",
                "--n", "64", "--p", "1", "--correction", "on", "--out-dir", str(out_dir),
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["corrected"] is True
        assert doc["min_eigenvalue"] > 0

    def test_large_n_skips_dense_diagnostic(self, tmp_path, capsys):
        out_dir = tmp_path / "spec"
        code, out, _ = run_cli(
            capsys,
            [
                "spectrum", "--alpha", "1", "--beta", "2", "--gamma", "3",
                "--n", "300", "--p", "2", "--out-dir", str(out_dir),
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cluster_fractions"] is None
        assert not (out_dir / "preconditioned_spectrum.csv").exists()


NON_FINITE_ARGV = {
    "decompose --tol nan": ["decompose", "{signal}", "--halfwidths", "3", "--tol", "nan", "--out-dir", "{out}"],
    "decompose --delta inf": ["decompose", "{signal}", "--halfwidths", "3", "--delta", "inf", "--out-dir", "{out}"],
    "spectrum --p inf": ["spectrum", "--alpha", "0", "--beta", "2", "--gamma", "8", "--n", "32", "--p", "inf", "--out-dir", "{out}"],
    "angle --tol inf": ["angle", "{f}", "{g}", "--tol", "inf"],
    "ortho --tol nan": ["ortho", "{f}", "{g}", "--tol", "nan"],
}


@pytest.mark.parametrize("argv", NON_FINITE_ARGV.values(), ids=NON_FINITE_ARGV.keys())
def test_non_finite_value_is_an_error(tmp_path, capsys, signal_file, argv):
    # rejected before any output: no directory, nothing on stdout
    out_dir = tmp_path / "out"
    paths = {
        "signal": signal_file[0],
        "f": write_vector(tmp_path / "f.csv", [1.0, 2.0]),
        "g": write_vector(tmp_path / "g.csv", [3.0, -1.0]),
        "out": str(out_dir),
    }
    code, out, err = run_cli(capsys, [a.format(**paths) for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["5", "null", '"x"', "[1, 2]"])
@pytest.mark.parametrize("command", ["audit", "precond-bench"])
def test_non_object_json_is_an_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    out_dir = tmp_path / "out"
    inputs = [str(path)] if command == "audit" else ["--config", str(path)]
    code, out, err = run_cli(capsys, [command, *inputs, "--out-dir", str(out_dir)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be a JSON object, got " in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"components": 5, "trend": [1, 2]}, "components"),
        ({"components": [[1, 2]], "trend": [1, 2], "meta": 5}, "meta"),
    ],
)
def test_decomposition_field_of_wrong_json_type_is_an_error(tmp_path, capsys, doc, field):
    path = tmp_path / "decomposition.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, ["audit", str(path), "--out-dir", str(out_dir)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: decomposition JSON '{field}' must be ")
    assert not out_dir.exists()


# Each fails after read_json has passed its first blocks to the copy.
FAILING_DECOMPOSITIONS = {
    "malformed": b'{"components": [[1.0, 2.0]], "trend": [1.0, 2.0',
    "not UTF-8": b'{"components": [[1.0, 2.0]], "trend": [1.0, 2.0], "meta": {"by": "\xff"}}',
    "inconsistent": b'{"components": [[1.0, 2.0, 3.0, 4.0]], "trend": [1.0, 2.0]}',
}


@pytest.mark.parametrize("existing", [None, b"kept"], ids=["new", "existing"])
@pytest.mark.parametrize("name", FAILING_DECOMPOSITIONS)
def test_failed_audit_leaves_the_out_dir_as_it_was(tmp_path, capsys, monkeypatch, name, existing):
    monkeypatch.setattr(serialize, "READ_BLOCK", 8)
    source = tmp_path / "input.json"
    source.write_bytes(FAILING_DECOMPOSITIONS[name])
    out_dir = tmp_path / "out" / "nested"
    if existing is not None:
        out_dir.mkdir(parents=True)
        (out_dir / "decomposition.json").write_bytes(existing)
    code, out, err = run_cli(capsys, ["audit", str(source), "--out-dir", str(out_dir)])
    assert (code, out) == (1, "") and err.startswith("error: ")
    if existing is None:  # the temporary file was in tmp_path, the nearest directory that exists
        assert os.listdir(tmp_path) == ["input.json"]
    else:
        assert os.listdir(out_dir) == ["decomposition.json"]
        assert (out_dir / "decomposition.json").read_bytes() == existing


def test_audit_replaces_the_decomposition_json_already_there(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(serialize, "READ_BLOCK", 8)
    source = tmp_path / "input.json"
    source.write_bytes(b'{"components": [[1.0, -1.0, 0.5, 2]], "trend": [0, 0, 1, 1], "meta": {"by": "\xc3\xa9"}}\n')
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "decomposition.json").write_bytes(b"old")
    code, _, _ = run_cli(capsys, ["audit", str(source), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "decomposition.json").read_bytes() == source.read_bytes()
    assert sorted(os.listdir(out_dir)) == [
        "decomposition.json", "energy_report.json", "energy_report.txt", "manifest.json", "spectrum_comparison.csv"
    ]


@pytest.mark.parametrize(
    "text", ["{not json", '{"trend": [1, 2]}  x', '{"trend": [1, NaN, 2.5e, 3]}', '\ufeff{"trend": [1]}', "\n\n  ]"]
)
def test_malformed_json_is_the_error_json_loads_gives(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    code, out, err = run_cli(capsys, ["audit", str(path)])
    assert (code, out, err) == (1, "", f"error: {expected.value}\n")


def test_manifest_parameters_are_the_parsed_flags(tmp_path, capsys, signal_file):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"alpha": 1, "beta": 2, "gamma": 3, "n_list": [16], "p_list": [2]}))
    decomposition = str(tmp_path / "decompose" / "decomposition.json")
    runs = {  # in order: audit reads what decompose wrote
        "decompose": (
            ["decompose", signal_file[0], "--halfwidths", "2, 5", "--delta", "0.01"],
            [signal_file[0]],
            {"halfwidths": [2, 5], "delta": 0.01, "max_inner": 200, "tol": 1e-10},
        ),
        "audit": (["audit", decomposition, "--tol", "1e-8"], [decomposition], {"tol": 1e-8}),
        "precond-bench": (
            ["precond-bench", "--config", str(config), "--workers", "1"],
            [str(config)],
            {
                "alpha": 1.0, "beta": 2.0, "gamma": 3.0, "n_list": [16], "p_list": [2.0],
                "tol": 1e-9, "maxit": None, "correction": "off", "rhs": "ones", "seed": None,
            },
        ),
        "spectrum": (
            ["spectrum", "--alpha", "0", "--beta", "2", "--gamma", "8", "--n", "32", "--p", "1.6"],
            [],
            {"alpha": 0.0, "beta": 2.0, "gamma": 8.0, "n": 32, "p": 1.6, "correction": "off"},
        ),
    }
    for command, (argv, inputs, parameters) in runs.items():
        out_dir = tmp_path / command
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert (manifest["command"], manifest["inputs"], manifest["out_dir"]) == (command, inputs, str(out_dir))
        assert list(manifest["parameters"].items()) == list(parameters.items())
    capsys.readouterr()


def hand_built_report(signal_abs, components_abs_sum, total_energy=2.0):
    """An EnergyReport with the given spectra at the n//2+1 rfft bins, as
    check_energy_conservation builds them."""
    return EnergyReport(
        total_energy=total_energy,
        component_energies=(1.0, 1.0),
        conservation_gap=0.0,
        conserved=True,
        tol=1e-10,
        unwanted_frequencies=(),
        signal_abs=np.asarray(signal_abs, dtype=float),
        components_abs_sum=np.asarray(components_abs_sum, dtype=float),
    )


class TestReportFiles:
    """Each report file's values are checked before the file is opened."""

    def test_non_finite_spectrum_leaves_no_file(self, tmp_path):
        report = hand_built_report([4.0, 1.0, 0.5], [4.0, np.nan, 0.5])
        with pytest.raises(ValueError, match="non-finite value nan"):
            _emit_report_files(str(tmp_path), report)
        assert sorted(os.listdir(tmp_path)) == ["energy_report.json", "energy_report.txt"]

    def test_non_finite_energy_leaves_no_file(self, tmp_path):
        report = hand_built_report([1.0, 1.0], [1.0, 1.0], total_energy=math.inf)
        with pytest.raises(ValueError, match="non-finite value inf"):
            _emit_report_files(str(tmp_path / "out"), report)
        assert not (tmp_path / "out").exists()


# Traced peaks of the benchmark's chirp round trip (2^16 samples): about
# 8.3 MB for decompose, whose tables are streamed, and 8.5 MB for audit
# --out-dir, which reads its 7.2 MB input a block at a time and holds one
# number array's text and list beside the arrays it has made (18.9 MB when it
# read the whole text and ran json.loads on it).
TRACED_PEAK_MB = {"decompose": 12.0, "audit": 12.0}


def test_traced_peak_of_the_chirp_round_trip(tmp_path, capsys):
    n = 2**16
    signal = chirp_plus_tone(n).samples + 0.1 * np.random.default_rng(1).standard_normal(n)
    write_signal_csv(tmp_path / "signal.csv", Signal(signal))
    dec, aud = tmp_path / "dec", tmp_path / "aud"
    runs = {
        "decompose": ["decompose", str(tmp_path / "signal.csv"), "--halfwidths", "2,8,32", "--out-dir", str(dec)],
        "audit": ["audit", str(dec / "decomposition.json"), "--out-dir", str(aud)],
    }
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for command, argv in runs.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv) == 0
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
            assert peak_mb <= TRACED_PEAK_MB[command], f"{command}: traced peak {peak_mb:.1f} MB"
    finally:
        if not was_tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert (aud / "decomposition.json").read_bytes() == (dec / "decomposition.json").read_bytes()


def test_signal_layer_takes_no_complex_fft(tmp_path, capsys, monkeypatch):
    # the decomposer, the audit, both angle domains and the signal commands
    # take real FFTs only
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **k: pytest.fail("took a complex FFT"))
    s = chirp_plus_tone(256)
    d = fif_decompose(s, [2, 6])
    assert check_energy_conservation(d).conserved
    for domain in ("time", "frequency"):
        assert pairwise_l1_angles(d, domain).shape == (3, 3)
    path = str(tmp_path / "signal.csv")
    write_signal_csv(path, s)
    dec, aud = tmp_path / "dec", tmp_path / "aud"
    for argv in (
        ["energy", path],
        ["decompose", path, "--halfwidths", "2,6", "--out-dir", str(dec)],
        ["audit", str(dec / "decomposition.json"), "--out-dir", str(aud)],
    ):
        assert run_cli(capsys, argv)[0] == 0


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "lportho" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_import_loads_no_scipy(self):
        # scipy.linalg is imported only by the banded preconditioner apply,
        # and nothing runs on a thread pool; importing the package and the
        # CLI must pull in neither.
        src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("lportho").__file__)))
        code = (
            "import sys, lportho, lportho.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_commands_load_no_scipy(self, tmp_path):
        # _banded_inverse imports scipy.linalg on its own path only, keeping
        # about 6 MB of resident memory off every other command: the signal
        # and angle commands, the paper grid (7-smooth n: the eigenbasis) and
        # spectrum at a 7-smooth and a prime n. A preconditioned solve at the
        # prime 97 takes the banded path and must load it, so the check is
        # not vacuous.
        rng = np.random.default_rng(0)
        f, g = (write_vector(tmp_path / name, rng.standard_normal(16)) for name in ("f.csv", "g.csv"))
        write_signal_csv(tmp_path / "signal.csv", Signal(rng.standard_normal(256)))
        argv = [
            ["energy", str(tmp_path / "signal.csv")],
            ["angle", f, g, "--p", "1.5"],
            ["decompose", str(tmp_path / "signal.csv"), "--halfwidths", "2,8", "--out-dir", str(tmp_path / "dec")],
            ["audit", str(tmp_path / "dec" / "decomposition.json"), "--out-dir", str(tmp_path / "aud")],
        ]
        for name, model in (("gentle", (1.0, 2.0, 3.0)), ("stiff", (0.0, 2.0, 8.0))):
            config = dict(zip(("alpha", "beta", "gamma"), model), n_list=[100, 400, 700, 1000])
            config.update(p_list=[1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0], correction="on")
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            argv.append(["precond-bench", "--config", str(tmp_path / f"{name}.json"), "--out-dir", str(tmp_path / name)])
        for n in ("128", "131"):
            model = ["--alpha", "0", "--beta", "2", "--gamma", "8", "--p", "1.6"]
            argv.append(["spectrum", *model, "--n", n, "--out-dir", str(tmp_path / f"spec{n}")])
        code = (
            "import contextlib, io, json, sys\n"
            "import numpy as np\n"
            "from lportho.cli import main\n"
            "from lportho.toeplitz_preconditioning import ToeplitzSymbol, build_toeplitz, lp_circulant_minimizer, pcg_solve\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(a) for a in json.loads(sys.argv[1])]\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "T = build_toeplitz(ToeplitzSymbol.from_model(1.0, 2.0, 3.0), 97)\n"
            "path = pcg_solve(T, np.ones(97), lp_circulant_minimizer(T, 1.0)).apply_path\n"
            "print(json.dumps([codes, loaded, path, 'scipy.linalg' in sys.modules]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("lportho").__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == [[0] * len(argv), [], "banded_cholesky", True]
