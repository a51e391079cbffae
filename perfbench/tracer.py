"""Spans and counts around lportho's public functions, recorded from outside.

install() replaces each traced function with a wrapper in every lportho
module that binds it, so calls between the package's own modules are seen
too (cli imports its library functions by name, signal_decomposition
imports angle). uninstall() puts the originals back. Spans are kept in
memory as (id, parent id, name, start, end) and written out by dump().

Self time of a span is its duration minus its direct children, except
children in the cli layer: a CLI command's self time is then what is left
after the library calls, i.e. parsing, serialization and file writes.
"""

from __future__ import annotations

import collections
import json
import sys
import time

# (module, function, metric stem). The stem names the per-layer metrics.
SPANNED = [
    ("toeplitz_preconditioning", "toeplitz_matvec", "toeplitz_preconditioning.toeplitz_matvec"),
    ("toeplitz_preconditioning", "pcg_solve", "toeplitz_preconditioning.pcg_solve"),
    ("toeplitz_preconditioning", "select_p_tilde", "toeplitz_preconditioning.select_p_tilde"),
    ("toeplitz_preconditioning", "lp_circulant_minimizer", "toeplitz_preconditioning.lp_circulant_minimizer"),
    ("toeplitz_preconditioning", "circulant_spectrum", "toeplitz_preconditioning.circulant_spectrum"),
    ("toeplitz_preconditioning", "run_benchmark", "toeplitz_preconditioning.run_benchmark"),
    ("signal_decomposition", "fif_decompose", "signal_decomposition.fif_decompose"),
    ("signal_decomposition", "check_energy_conservation", "signal_decomposition.check_energy_conservation"),
    ("signal_decomposition", "l1_fourier_energy", "signal_decomposition.l1_fourier_energy"),
    ("signal_decomposition", "pairwise_l1_angles", "signal_decomposition.pairwise_l1_angles"),
    ("signal_decomposition", "read_signal_csv", "signal_decomposition.read_signal_csv"),
    ("signal_decomposition", "decomposition_from_dict", "signal_decomposition.decomposition_from_dict"),
    ("banach_geometry", "angle", "banach_geometry.angle"),
    ("banach_geometry", "pythagorean_defect", "banach_geometry.pythagorean_defect"),
    ("banach_geometry", "dualize", "banach_geometry.dualize"),
    ("_serialize", "dumps_json", "cli.dumps_json"),
]
# Called hundreds of thousands of times per CLI op: counted, not spanned.
COUNTED = [("_serialize", "format_float", "cli.format_float")]
# CLI commands get a span named after the subcommand.
COMMANDS = {"precond-bench": "cli.precond_bench", "decompose": "cli.decompose", "audit": "cli.audit"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.seconds: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._flush: list[tuple[str, list[int]]] = []  # plain call counters, added to counts at uninstall
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end))
        self.seconds[name + "_s"] += duration
        self.counts[name + "_calls"] += 1
        self.seconds[name + "_self_s"] += duration - child
        if parent is not None and not name.startswith("cli."):
            parent[3] += duration

    def _spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            self._observe(name, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        calls = [0]
        self._flush.append((name + "_calls", calls))

        def wrapper(x):  # counted functions take one argument; a bare signature keeps the wrapper cheap
            calls[0] += 1
            return fn(x)

        return wrapper

    def _command(self, fn):
        def wrapper(argv=None):
            frame = self._enter(COMMANDS.get(argv[0] if argv else "", "cli.other"))
            try:
                return fn(argv)
            finally:
                self._exit(frame)

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "toeplitz_preconditioning.pcg_solve":
            self.counts["toeplitz_preconditioning.pcg_iterations"] += result.iterations
        elif name == "signal_decomposition.fif_decompose":
            self.counts["signal_decomposition.fif_inner_iterations"] += sum(result.meta["inner_iterations"])
            self.counts["signal_decomposition.fif_stages_at_cap"] += sum(not c for c in result.meta["converged"])

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "lportho" or key.startswith("lportho.")]
        for mod, fn_name, stem in SPANNED:
            original = getattr(sys.modules["lportho." + mod], fn_name)
            self._rebind(modules, original, self._spanned(original, stem))
        for mod, fn_name, stem in COUNTED:
            original = getattr(sys.modules["lportho." + mod], fn_name)
            self._rebind(modules, original, self._counted(original, stem))
        cli = sys.modules["lportho.cli"]
        self._rebind([cli], cli.main, self._command(cli.main))

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for key, calls in self._flush:
            self.counts[key] += calls[0]
        self._flush.clear()

    def totals(self) -> dict[str, float]:
        totals = {**self.seconds, **self.counts}
        # PCG's self time is reported under the shorter name pcg_self_s.
        totals["toeplitz_preconditioning.pcg_self_s"] = totals.pop("toeplitz_preconditioning.pcg_solve_self_s", 0.0)
        return totals

    def dump(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "totals": self.totals(),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[i, p, n, round(s, 7), round(e, 7)] for i, p, n, s, e in sorted(self.spans)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
