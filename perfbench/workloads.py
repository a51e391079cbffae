"""The four op groups and the two workloads that join them.

An op group (PaperGrids, LargeSolves, ChirpCertificate, ChirpCli) holds
inputs, a fixed op list, one op and its checks; a workload (Toeplitz,
Chirp) runs two groups' op lists as one round. Either is built from a
seed and a scratch directory. prepare() makes
the inputs; ops is the op list every round repeats; run(op, out_dir) is the
timed call into lportho; check(op, output, out_dir) verifies the output
with checks.py and returns a few figures for the run's log. It raises
CheckFailed when an output is wrong, and StatusDishonest, a subclass, when
the op ran but failed its purpose: that op is counted as failed.
Library calls go through module attributes (tp.pcg_solve, not a name
imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
from checks import GENTLE, N_GRID, P_GRID, STIFF, require
from lportho import cli
from lportho import signal_decomposition as sd
from lportho import toeplitz_preconditioning as tp

PCG_TOL = 1e-9  # lportho's documented default, which the solves use
PCG_MAXIT = 1000  # today's counts are about 40
LARGE_SYSTEMS = (("gentle", 2**17), ("gentle", 131071), ("stiff", 2**17), ("stiff", 131071))
CHIRP_N = 2**16
CHIRP_HALFWIDTHS = (2, 8, 32)
CHIRP_NOISE = 0.1
SYMBOLS = {"gentle": GENTLE, "stiff": STIFF}


def _cli(argv: list[str]) -> str:
    """Run one lportho command in-process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lportho {argv[0]} exited with {code}")
    return out.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def chirp_signal(seed: int) -> np.ndarray:
    """lportho's chirp_plus_tone on CHIRP_N samples, plus seeded white noise."""
    noise = np.random.default_rng(seed).standard_normal(CHIRP_N)
    return sd.chirp_plus_tone(CHIRP_N).samples + CHIRP_NOISE * noise


class PaperGrids:
    """`lportho precond-bench --workers 1`, one op per paper table: gentle, then stiff.

    The inputs do not depend on the seed: the paper's tables use the
    all-ones right-hand side.
    """

    name = "paper_grids"
    ops = tuple(SYMBOLS)
    TABLE_CHECKS = {"gentle": checks.check_gentle_table, "stiff": checks.check_stiff_table}

    def __init__(self, seed: int, work_dir: str) -> None:
        self.work_dir = work_dir

    def prepare(self) -> None:
        for label, (alpha, beta, gamma) in SYMBOLS.items():
            doc = {"alpha": alpha, "beta": beta, "gamma": gamma, "n_list": list(N_GRID), "p_list": list(P_GRID)}
            with open(os.path.join(self.work_dir, f"{label}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def run(self, op: str, out_dir: str) -> str:
        config = os.path.join(self.work_dir, f"{op}.json")
        return _cli(["precond-bench", "--config", config, "--workers", "1", "--out-dir", out_dir])

    def check(self, op: str, printed: str, out_dir: str) -> dict:
        self.TABLE_CHECKS[op](checks.parse_table_csv(_read(os.path.join(out_dir, "table.csv"))))
        require(_read(os.path.join(out_dir, "table.md")) == printed, f"{op}: printed table differs from table.md")
        for n in N_GRID:
            for p in P_GRID:
                text = _read(os.path.join(out_dir, "spectra", f"spectrum_n{n}_p{p:g}.csv"))
                checks.check_spectrum_csv(text, n, p, SYMBOLS[op])
        return {}


class LargeSolves:
    """select_p_tilde -> lp_circulant_minimizer -> pcg_solve on four systems.

    Gentle systems get a seeded standard-normal right-hand side. Stiff ones
    get the all-ones vector whatever the seed: their solves fail the
    residual check on every input, and a failure kept in the workload must
    not depend on the seed.
    """

    name = "large_solves"
    ops = LARGE_SYSTEMS

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self._expected_p: dict = {}

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.rhs = {
            (label, n): np.ones(n) if label == "stiff" else rng.standard_normal(n) for label, n in LARGE_SYSTEMS
        }

    def run(self, op: tuple[str, int], out_dir: str):
        label, n = op
        T = tp.build_toeplitz(tp.ToeplitzSymbol.from_model(*SYMBOLS[label]), n)
        p = tp.select_p_tilde(T, P_GRID)
        C = tp.lp_circulant_minimizer(T, p)
        return p, tp.pcg_solve(T, self.rhs[op], C, maxit=PCG_MAXIT)

    def check(self, op: tuple[str, int], output, out_dir: str) -> dict:
        label, n = op
        p, report = output
        if op not in self._expected_p:
            self._expected_p[op] = checks.expected_p_tilde(n, SYMBOLS[label])
        require(p == self._expected_p[op], f"{label} n={n}: p~ = {p}, closed form gives {self._expected_p[op]}")
        true_res = (
            float("inf")
            if report.solution is None
            else checks.banded_relative_residual(SYMBOLS[label], report.solution, self.rhs[op])
        )
        detail = {"p": p, "status": report.status, "iterations": report.iterations,
                  "recursive_residual": report.relative_residuals[-1], "true_residual": true_res}
        try:
            checks.check_status_honest(report.status, true_res, PCG_TOL)
        except checks.StatusDishonest as exc:
            raise checks.StatusDishonest(f"{exc}; {detail}") from None
        return detail


class ChirpCli:
    """`lportho decompose` then `lportho audit` on a written chirp signal."""

    name = "chirp_cli"
    ops = ("decompose+audit",)

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.signal_path = os.path.join(work_dir, "signal.csv")

    def prepare(self) -> None:
        self.samples = chirp_signal(self.seed)
        with open(self.signal_path, "w", encoding="utf-8") as fh:
            fh.write("".join(repr(float(v)) + "\n" for v in self.samples))

    def run(self, op: str, out_dir: str) -> tuple[str, str]:
        dec, aud = os.path.join(out_dir, "decompose"), os.path.join(out_dir, "audit")
        halfwidths = ",".join(str(h) for h in CHIRP_HALFWIDTHS)
        printed = _cli(["decompose", self.signal_path, "--halfwidths", halfwidths, "--out-dir", dec])
        audited = _cli(["audit", os.path.join(dec, "decomposition.json"), "--out-dir", aud])
        return printed, audited

    def check(self, op: str, output: tuple[str, str], out_dir: str) -> dict:
        printed, audited = output
        dec = os.path.join(out_dir, "decompose")
        written = json.loads(_read(os.path.join(dec, "energy_report.json")))
        require(json.loads(printed) == written, "decompose printed a report other than energy_report.json")
        doc = json.loads(_read(os.path.join(dec, "decomposition.json")))
        require(len(doc["components"]) == len(CHIRP_HALFWIDTHS), f"{len(doc['components'])} components written")
        parts = [np.asarray(c, dtype=float) for c in doc["components"]] + [np.asarray(doc["trend"], dtype=float)]
        checks.check_energy_report(written, self.samples, parts)
        checks.check_spectrum_comparison(_read(os.path.join(dec, "spectrum_comparison.csv")), self.samples, parts)
        checks.check_reports_equal(json.loads(audited), written)
        return {"inner_iterations": doc["meta"]["inner_iterations"]}


class ChirpCertificate:
    """fif_decompose, check_energy_conservation and both angle matrices, in memory."""

    name = "chirp_certificate"
    ops = ("certificate",)

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed

    def prepare(self) -> None:
        self.samples = chirp_signal(self.seed)
        self.signal = sd.Signal(self.samples)

    def run(self, op: str, out_dir: str):
        d = sd.fif_decompose(self.signal, CHIRP_HALFWIDTHS)
        report = sd.check_energy_conservation(d)
        return d, report, sd.pairwise_l1_angles(d, "time"), sd.pairwise_l1_angles(d, "frequency")

    def check(self, op: str, output, out_dir: str) -> dict:
        d, report, time_angles, freq_angles = output
        parts = [c.samples for c in d.components] + [d.trend.samples]
        require(len(parts) == len(CHIRP_HALFWIDTHS) + 1, f"{len(parts)} parts for {len(CHIRP_HALFWIDTHS)} stages")
        as_dict = {
            "total_energy": report.total_energy,
            "component_energies": report.component_energies,
            "conservation_gap": report.conservation_gap,
            "conserved": report.conserved,
            "unwanted_frequencies": report.unwanted_frequencies,
        }
        checks.check_energy_report(as_dict, self.samples, parts)
        checks.check_angles(parts, time_angles, freq_angles)
        return {"inner_iterations": d.meta["inner_iterations"]}


class _Combined:
    """The op lists of several workloads run as one round.

    An op is (part name, the part's op); each part keeps its own inputs,
    run and check. All parts share one work directory.
    """

    PARTS: tuple = ()

    def __init__(self, seed: int, work_dir: str) -> None:
        self.parts = {cls.name: cls(seed, work_dir) for cls in self.PARTS}
        self.ops = tuple((name, op) for name, part in self.parts.items() for op in part.ops)

    def prepare(self) -> None:
        for part in self.parts.values():
            part.prepare()

    def run(self, op: tuple, out_dir: str):
        name, inner = op
        return self.parts[name].run(inner, out_dir)

    def check(self, op: tuple, output, out_dir: str) -> dict:
        name, inner = op
        return self.parts[name].check(inner, output, out_dir)


class Toeplitz(_Combined):
    """paper_grids then large_solves: the preconditioner layer at small and at large n."""

    name = "toeplitz"
    PARTS = (PaperGrids, LargeSolves)


class Chirp(_Combined):
    """chirp_certificate then chirp_cli, on the same seeded signal."""

    name = "chirp"
    PARTS = (ChirpCertificate, ChirpCli)


WORKLOADS = {w.name: w for w in (Toeplitz, Chirp)}
