"""Regenerate paper_tables.json, the golden record of the paper tables and
of small CLI outputs.

    PYTHONPATH=src python tests/golden/regenerate.py

The record holds, with the numpy and scipy versions it was made with:

- cells: status, iterations and replacements of every paper-grid cell,
  the gentle (1, 2, 3) and stiff (0, 2, 8) models with correction off and
  on, n in N_LIST, p in P_LIST and the unpreconditioned cell ("n.p.");
- p_tilde: select_p_tilde over P_LIST for each model and n;
- stdout: what `energy`, `angle --p 1.5`, `ortho --p 1`,
  `decompose --halfwidths 2,8`, `audit --out-dir` of that decomposition,
  `precond-bench` (stiff, n = 100) and `spectrum` (SPECTRA) print on
  seeded inputs (a 2^10-sample chirp with noise, written with its `# B=`
  header, and two vectors of 50 samples);
- files: the sha256 of every file those `decompose`, `audit`,
  `precond-bench` and `spectrum` runs write, by command and path, except
  UNPINNED: manifest.json holds a timestamp and absolute paths, and the
  last bits of preconditioned_spectrum.csv, a dense eigensolver's output,
  follow the BLAS thread count (the gentle n = 250 file differs between
  one and two threads).

tests/test_golden.py compares a fresh record() with the file exactly. A
change that moves anything reruns this script and lists what it printed
(the entries that moved) in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from lportho import cli
from lportho.signal_decomposition import Signal, chirp_plus_tone, write_signal_csv
from lportho.toeplitz_preconditioning import (
    BenchmarkConfig,
    ToeplitzSymbol,
    build_toeplitz,
    run_benchmark,
    select_p_tilde,
)

GOLDEN = Path(__file__).with_name("paper_tables.json")

MODELS = {"gentle": (1.0, 2.0, 3.0), "stiff": (0.0, 2.0, 8.0)}
N_LIST = (100, 400, 700, 1000)
P_LIST = (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)
UNPINNED = ("manifest.json", "preconditioned_spectrum.csv")  # files without a digest (see above)
# `spectrum` runs: stiff and SPD (both spectra), stiff and indefinite with
# the correction, gentle at p = 1, and stiff with no preconditioned
# spectrum (n above the dense diagnostic limit).
SPECTRA = {
    "stiff n=200 p=1.6": ["--alpha", "0", "--beta", "2", "--gamma", "8", "--n", "200", "--p", "1.6"],
    "stiff n=200 p=1.4 corrected": [
        "--alpha", "0", "--beta", "2", "--gamma", "8", "--n", "200", "--p", "1.4", "--correction", "on",
    ],
    "gentle n=250 p=1": ["--alpha", "1", "--beta", "2", "--gamma", "3", "--n", "250", "--p", "1"],
    "stiff n=5000 p=1.6": ["--alpha", "0", "--beta", "2", "--gamma", "8", "--n", "5000", "--p", "1.6"],
}


def _cells() -> dict:
    cells = {}
    for model, (alpha, beta, gamma) in MODELS.items():
        for correction in ("off", "on"):
            result = run_benchmark(BenchmarkConfig(alpha, beta, gamma, N_LIST, P_LIST, correction=correction))
            for cell in result.cells:
                r = cell.report
                p = "n.p." if cell.p is None else format(cell.p, "g")
                key = f"{model}/{correction}/n={cell.n}/p={p}"
                cells[key] = {"status": r.status, "iterations": r.iterations, "replacements": r.replacements}
    return cells


def _p_tilde() -> dict:
    return {
        f"{model}/n={n}": select_p_tilde(build_toeplitz(ToeplitzSymbol.from_model(*params), n), P_LIST)
        for model, params in MODELS.items()
        for n in N_LIST
    }


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lportho {' '.join(argv)} exited {code}")
    return out.getvalue()


def _digests(root: str) -> dict:
    """The sha256 of every file under root but the UNPINNED ones, by path
    relative to root."""
    digests = {}
    for folder, _, names in os.walk(root):
        for name in names:
            if name not in UNPINNED:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, root).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def _cli_outputs() -> tuple[dict, dict]:
    """The stdout of each CLI run, and the digests of the files each wrote."""
    n = 2**10
    chirp = chirp_plus_tone(n).samples + 0.1 * np.random.default_rng(0).standard_normal(n)
    f, g = (np.random.default_rng(seed).standard_normal(50) for seed in (1, 2))
    with tempfile.TemporaryDirectory() as tmp:
        signal, f_path, g_path, config = (os.path.join(tmp, x) for x in ("chirp.csv", "f.csv", "g.csv", "stiff.json"))
        write_signal_csv(signal, Signal(chirp))
        for path, values in ((f_path, f), (g_path, g)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{v:.17g}\n" for v in values)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"alpha": 0, "beta": 2, "gamma": 8, "n_list": [100], "p_list": list(P_LIST)}, fh)
        dirs = {"decompose": "dec", "audit": "aud", "precond-bench stiff n=100": "bench"}
        dirs.update({f"spectrum {label}": f"spec{i}" for i, label in enumerate(SPECTRA)})
        dirs = {label: os.path.join(tmp, d) for label, d in dirs.items()}
        stdout = {
            "energy": _stdout(["energy", signal]),
            "angle --p 1.5": _stdout(["angle", f_path, g_path, "--p", "1.5"]),
            "ortho --p 1": _stdout(["ortho", f_path, g_path, "--p", "1"]),
            "decompose --halfwidths 2,8": _stdout(
                ["decompose", signal, "--halfwidths", "2,8", "--out-dir", dirs["decompose"]]
            ),
            "audit": _stdout(
                ["audit", os.path.join(dirs["decompose"], "decomposition.json"), "--out-dir", dirs["audit"]]
            ),
            "precond-bench stiff n=100": _stdout(
                ["precond-bench", "--config", config, "--out-dir", dirs["precond-bench stiff n=100"]]
            ),
        }
        for label, argv in SPECTRA.items():
            stdout[f"spectrum {label}"] = _stdout(["spectrum", *argv, "--out-dir", dirs[f"spectrum {label}"]])
        files = {
            f"{label}: {path}": digest for label, root in dirs.items() for path, digest in _digests(root).items()
        }
        return stdout, files


def record() -> dict:
    """The golden record as this checkout computes it."""
    stdout, files = _cli_outputs()
    return {
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "cells": _cells(),
        "p_tilde": _p_tilde(),
        "stdout": stdout,
        "files": files,
    }


def moved(old: dict, new: dict) -> list[str]:
    """One line per cell, p-tilde, stdout or file entry that differs between
    two records, or that only one of them has; versions are not compared."""
    lines = []
    for part in ("cells", "p_tilde", "stdout", "files"):
        a, b = old.get(part, {}), new.get(part, {})
        for key in list(a) + [k for k in b if k not in a]:
            if a.get(key) != b.get(key):
                lines.append(f"{part} {key}: {a.get(key)!r} -> {b.get(key)!r}")
    return lines


def dumps(rec: dict) -> str:
    """rec as JSON with one line per entry, so a diff shows each moved cell."""
    parts = []
    for part, entries in rec.items():
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in entries.items())
        parts.append(f" {json.dumps(part)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    new = record()
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(dumps(new), encoding="utf-8")
    print(f"versions {old.get('versions')} -> {new['versions']}")
    for line in moved(old, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
