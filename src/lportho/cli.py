"""Command-line front end.

Subcommands:
    angle          weak inner product, defect, and angle of two vectors
    ortho          orthogonality test for two vectors
    energy         L1 Fourier energy of a signal
    decompose      spectral iterative-filtering split of a signal
    audit          re-check an externally supplied decomposition JSON; with
                   --out-dir it writes back the file it read, byte for byte
    precond-bench  iteration-count tables over an (n, p) grid
    spectrum       circulant and preconditioned spectra for one (n, p)

Every file-producing command drops a manifest.json alongside its outputs;
reruns with the same manifest are bit-identical except for the timestamp.
All floating-point output carries 17 significant digits. Numeric tables
are formatted from the float64 arrays by one vectorised kernel, the exact
bytes of "%.17g", and streamed to their files a block of rows at a time;
each file's values are checked before the file is opened, so a failed
command leaves no partial file. Every real spectrum (spectrum_comparison.csv,
the spectra of precond-bench, circulant_spectrum.csv) is written from its
n//2+1 distinct values by _serialize.mirrored_table_writer, each distinct
row formatted once. Set LPORTHO_LOG to DEBUG/INFO/WARNING to control
verbosity.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from ._serialize import Writer, dumps_json, format_float, json_writer, mirrored_table_writer, read_numbers, table_writer
from .banach_geometry import DEFAULT_ORTHO_TOL, DiscreteFunction, GeometryResult, is_orthogonal, pair_geometry
from .signal_decomposition import (
    EnergyReport,
    check_energy_conservation,
    decomposition_from_dict,
    decomposition_to_dict,
    energy_report_to_dict,
    fif_decompose,
    l1_fourier_energy,
    read_signal_csv,
)
from .toeplitz_preconditioning import (
    BenchmarkConfig,
    DENSE_DIAGNOSTIC_LIMIT,
    ToeplitzSymbol,
    build_toeplitz,
    lp_circulant_minimizer,
    preconditioned_spectrum_diagnostic,
    render_table_csv,
    render_table_markdown,
    run_benchmark,
    strang_type_correction,
)

log = logging.getLogger("lportho")


def _setup_logging() -> None:
    level_name = os.environ.get("LPORTHO_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write(out_dir: str, name: str, content: Union[str, Writer]) -> str:
    """Write content, a text or a Writer, to out_dir/name, creating its
    directory, and return name.

    A Writer is built, and its values checked, before this opens the file.
    newline="" writes the text as it is, so audit's write-back of a file it
    read the same way keeps every byte.
    """
    path = os.path.join(out_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            content(fh.write)
    return name


def _write_manifest(
    args: argparse.Namespace,
    inputs: Sequence[str],
    outputs: list[str],
    parameters: Optional[dict] = None,
    seed: Optional[int] = None,
) -> None:
    """manifest.json in args.out_dir. inputs names the arguments that hold
    input paths; parameters default to every other parsed argument except
    the output directory."""
    if parameters is None:
        skip = {"command", "func", "out_dir", *inputs}
        parameters = {k: v for k, v in vars(args).items() if k not in skip}
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "inputs": [getattr(args, k) for k in inputs],
        "parameters": parameters,
        "seed": seed,
        "out_dir": args.out_dir,
        "outputs": outputs,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write(args.out_dir, "manifest.json", json_writer(manifest))


def _print_json(doc: dict) -> None:
    sys.stdout.write(dumps_json(doc))


def _pair(args: argparse.Namespace) -> tuple[GeometryResult, bool]:
    """angle's and ortho's one path: the pair geometry of the vectors in
    args.file_f and args.file_g at args.p, and whether they are orthogonal
    to within args.tol."""
    f = DiscreteFunction(read_numbers(args.file_f)[0])
    g = DiscreteFunction(read_numbers(args.file_g)[0])
    return pair_geometry(f, g, args.p), is_orthogonal(f, g, args.p, args.tol)


def _cmd_angle(args: argparse.Namespace) -> int:
    result, orthogonal = _pair(args)
    _print_json({"wip": result.weak_inner_product, "defect": result.defect, "angle": result.angle, "orthogonal": orthogonal})
    return 0


def _cmd_ortho(args: argparse.Namespace) -> int:
    result, orthogonal = _pair(args)
    _print_json({"orthogonal": orthogonal, "wip": result.weak_inner_product, "p": float(args.p), "tol": float(args.tol)})
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    s = read_signal_csv(args.signal)
    _print_json({"n": s.n, "bandwidth": s.bandwidth, "energy": l1_fourier_energy(s)})
    return 0


def _report_text(report: EnergyReport) -> str:
    lines = ["quantity,value"]
    lines.append(f"total_energy,{format_float(report.total_energy)}")
    for i, e in enumerate(report.component_energies[:-1]):
        lines.append(f"component_{i}_energy,{format_float(e)}")
    lines.append(f"trend_energy,{format_float(report.component_energies[-1])}")
    lines.append(f"conservation_gap,{format_float(report.conservation_gap)}")
    lines.append(f"conserved,{str(report.conserved).lower()}")
    lines.append(f"unwanted_frequency_count,{len(report.unwanted_frequencies)}")
    return "\n".join(lines) + "\n"


def _spectrum_comparison(report: EnergyReport) -> Writer:
    """A Writer of spectrum_comparison.csv: xi, |s_hat(xi)| and
    sum_k |phi_k_hat(xi)| for xi = 0..n-1, from the report's n//2+1 rfft
    bins of real signals of even length n (bin n-k mirrors bin k).
    ValueError, before anything is written, unless the values are finite.
    """
    spectra = (report.signal_abs, report.components_abs_sum)
    return mirrored_table_writer("xi,signal_abs,components_abs_sum\n", "%d,%.17g,%.17g\n", 2 * spectra[0].size - 2, *spectra)


def _emit_report_files(out_dir: str, report: EnergyReport) -> list[str]:
    return [
        _write(out_dir, "energy_report.json", json_writer(energy_report_to_dict(report))),
        _write(out_dir, "energy_report.txt", _report_text(report)),
        _write(out_dir, "spectrum_comparison.csv", _spectrum_comparison(report)),
    ]


def _cmd_decompose(args: argparse.Namespace) -> int:
    s = read_signal_csv(args.signal)
    args.halfwidths = [int(h) for h in args.halfwidths.split(",") if h.strip()]
    d = fif_decompose(s, args.halfwidths, args.delta, args.max_inner)
    report = check_energy_conservation(d, args.tol)
    outputs = [_write(args.out_dir, "decomposition.json", json_writer(decomposition_to_dict(d)))]
    outputs += _emit_report_files(args.out_dir, report)
    _write_manifest(args, ["signal"], outputs)
    log.info("decomposition written to %s", args.out_dir)
    _print_json(energy_report_to_dict(report))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    with open(args.decomposition, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    report = check_energy_conservation(decomposition_from_dict(json.loads(text)), args.tol)
    if args.out_dir:
        # The text read goes back as it is, not re-serialized, and is dropped
        # before the reports are formatted: its 17-digit samples are the
        # largest thing audit holds.
        target = os.path.join(args.out_dir, "decomposition.json")
        if not (os.path.exists(target) and os.path.samefile(target, args.decomposition)):
            _write(args.out_dir, "decomposition.json", text)
        del text
        outputs = ["decomposition.json"] + _emit_report_files(args.out_dir, report)
        _write_manifest(args, ["decomposition"], outputs)
    _print_json(energy_report_to_dict(report))
    return 0


def _spectrum_csv(n: int, half_eigenvalues: np.ndarray) -> Writer:
    """A Writer of j, lambda_j for j = 0..n-1 from n//2+1 distinct eigenvalues."""
    return mirrored_table_writer("j,lambda\n", "%d,%.17g\n", n, half_eigenvalues)


def _cmd_precond_bench(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = BenchmarkConfig.from_dict(json.load(fh))
    result = run_benchmark(config)
    outputs = [
        _write(args.out_dir, "table.csv", render_table_csv(result)),
        _write(args.out_dir, "table.md", render_table_markdown(result)),
    ]
    for cell in result.cells:
        if cell.half_eigenvalues is not None:
            name = os.path.join("spectra", f"spectrum_n{cell.n}_p{cell.p:g}.csv")
            outputs.append(_write(args.out_dir, name, _spectrum_csv(cell.n, cell.half_eigenvalues)))
    _write_manifest(args, ["config"], outputs, config.to_dict(), config.seed)
    log.info("benchmark written to %s", args.out_dir)
    sys.stdout.write(render_table_markdown(result))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    T = build_toeplitz(ToeplitzSymbol.from_model(args.alpha, args.beta, args.gamma), args.n)
    C = lp_circulant_minimizer(T, args.p)
    corrected = args.correction == "on" and not C.is_spd()
    if corrected:
        C = strang_type_correction(C)
    lam = C.half_eigenvalues
    outputs = [_write(args.out_dir, "circulant_spectrum.csv", _spectrum_csv(args.n, lam))]
    summary: dict = {
        "n": args.n,
        "p": args.p,
        "corrected": corrected,
        "min_eigenvalue": float(np.min(lam)),
        "max_eigenvalue": float(np.max(lam)),
        "negative_eigenvalue_count": C.num_negative_eigenvalues,
    }
    if args.n <= DENSE_DIAGNOSTIC_LIMIT and C.is_spd():
        diag = preconditioned_spectrum_diagnostic(T, C)
        writer = table_writer("j,lambda\n", "%d,%.17g\n", range(args.n), diag.eigenvalues)
        outputs.append(_write(args.out_dir, "preconditioned_spectrum.csv", writer))
        summary["cluster_fractions"] = {format(r, "g"): v for r, v in diag.cluster_fractions.items()}
    else:
        summary["cluster_fractions"] = None
    _write_manifest(args, [], outputs)
    _print_json(summary)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lportho",
        description="Banach-space angles, L1 Fourier-energy conservation, and lp circulant preconditioning.",
    )
    parser.add_argument("--version", action="version", version=f"lportho {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("angle", "weak inner product, defect, and angle of two vectors", _cmd_angle),
        ("ortho", "orthogonality test for two vectors", _cmd_ortho),
    ):
        p_pair = sub.add_parser(name, help=help_text)
        p_pair.add_argument("file_f")
        p_pair.add_argument("file_g")
        p_pair.add_argument("--p", type=float, default=1.0)
        p_pair.add_argument("--tol", type=float, default=DEFAULT_ORTHO_TOL)
        p_pair.set_defaults(func=func)

    p_energy = sub.add_parser("energy", help="L1 Fourier energy of a signal")
    p_energy.add_argument("signal")
    p_energy.set_defaults(func=_cmd_energy)

    p_dec = sub.add_parser("decompose", help="spectral iterative-filtering decomposition")
    p_dec.add_argument("signal")
    p_dec.add_argument("--halfwidths", required=True, help="comma-separated increasing filter halfwidths")
    p_dec.add_argument("--delta", type=float, default=1e-3)
    p_dec.add_argument("--max-inner", type=int, default=200)
    p_dec.add_argument("--tol", type=float, default=1e-10, help="energy conservation tolerance")
    p_dec.add_argument("--out-dir", default="lportho-out")
    p_dec.set_defaults(func=_cmd_decompose)

    p_audit = sub.add_parser("audit", help="energy-check an external decomposition JSON")
    p_audit.add_argument("decomposition")
    p_audit.add_argument("--tol", type=float, default=1e-10)
    p_audit.add_argument("--out-dir", default=None)
    p_audit.set_defaults(func=_cmd_audit)

    p_bench = sub.add_parser("precond-bench", help="iteration tables over an (n, p) grid")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out-dir", default="lportho-out")
    p_bench.add_argument("--workers", type=int, default=None, help="ignored: the grid runs serially")
    p_bench.set_defaults(func=_cmd_precond_bench)

    p_spec = sub.add_parser("spectrum", help="circulant and preconditioned spectra for one (n, p)")
    p_spec.add_argument("--alpha", type=float, required=True)
    p_spec.add_argument("--beta", type=float, required=True)
    p_spec.add_argument("--gamma", type=float, required=True)
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--p", type=float, required=True)
    p_spec.add_argument("--correction", choices=["on", "off"], default="off")
    p_spec.add_argument("--out-dir", default="lportho-out")
    p_spec.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
