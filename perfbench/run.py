"""Benchmark of lportho's user-facing computations, in two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload toeplitz --seed 1 --seconds 55 --trace 0

The program is imported from src/ in-process: one process, one thread for
BLAS and OpenMP, the default allocator. setup_s is the time from the first
line of this file to the end of the imports, plus the median of three
set-ups, each of which makes the inputs and one warm-up op. Then whole
rounds of the workload's op list run until --seconds have passed; each op
is timed, and its outputs are checked against checks.py after the round. The last stdout
line is one JSON object with correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1.

Every op is timed in every untraced round. run_s is the median over those
rounds of the time of one pass over the op list, and op_p50_s the median
over the op list of each op's median time. Medians, not the fastest round:
under the default allocator an op's time depends on how many pages it
faults in, and its fastest round is a rare low-fault outlier that moves
twice as much from run to run as its median does.

With --trace 1 rounds alternate untraced and traced; each per-layer figure
is its median total over the traced rounds (the lower middle one of an
even count), and trace_overhead_s is the median traced round minus the
median untraced one. Spans are written to
perfbench-out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads: one compute thread, so a run never contends with itself.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 3


def _import_program() -> None:
    """Put src/ first on the path and make sure lportho comes from there."""
    if not (SRC / "lportho" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lportho sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lportho

    if Path(lportho.__file__).resolve().parent != SRC / "lportho":
        sys.exit(f"perfbench: lportho imported from {lportho.__file__}, not from {SRC}")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure(args: argparse.Namespace, spec: dict, import_s: float) -> dict:
    from workloads import WORKLOADS

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return _measure_in(run_dir, WORKLOADS[args.workload], args, spec, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure_in(run_dir: Path, cls, args, spec: dict, import_s: float) -> dict:
    import checks
    import tracer

    setups = []
    for i in range(SETUP_REPEATS):
        work_dir = run_dir / f"setup{i}"
        work_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        workload = cls(args.seed, str(work_dir))
        workload.prepare()
        workload.run(workload.ops[0], str(work_dir / "warmup"))
        setups.append(time.perf_counter() - t0)
        shutil.rmtree(work_dir / "warmup", ignore_errors=True)

    _log(f"import {import_s:.4f} s, set-ups " + " ".join(f"{t:.4f}" for t in setups))
    recorder = tracer.Tracer() if args.trace else None
    labels = [str(op) for op in workload.ops]
    op_times: list[list[float]] = [[] for _ in labels]  # untraced rounds only
    passes: dict[bool, list[float]] = {False: [], True: []}
    layer_rounds: list[dict[str, float]] = []
    details: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    round_no = 0
    while True:
        traced = recorder is not None and round_no % 2 == 1
        gc.collect()
        if traced:
            before = recorder.totals()
            recorder.install()
        results = []
        t_pass = time.perf_counter()
        for i, op in enumerate(workload.ops):
            out_dir = run_dir / f"round{round_no}-op{i}"
            t0 = time.perf_counter()
            try:
                output, error = workload.run(op, str(out_dir)), None
            except Exception:  # a failing op is counted, not fatal
                output, error = None, traceback.format_exc()
            if not traced:
                op_times[i].append(time.perf_counter() - t0)
            results.append((op, out_dir, output, error))
        passes[traced].append(time.perf_counter() - t_pass)
        if round_no == 0:  # before any check runs, so the peak is the program's
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if traced:
            recorder.uninstall()
            after = recorder.totals()
            layer = {k: after[k] - before.get(k, 0) for k in after}
            layer["cli.output_bytes"] = sum(_dir_bytes(r[1]) for r in results if r[1].exists())
            layer_rounds.append(layer)

        for (op, out_dir, output, error), label in zip(results, labels):
            attempted += 1
            if error is not None:
                failed += 1
                _log(f"FAILED {label}: {error}")
            else:
                try:
                    details[label] = workload.check(op, output, str(out_dir))
                except checks.StatusDishonest as exc:
                    failed += 1
                    details[label] = {"failure": str(exc)}
                except checks.CheckFailed as exc:
                    correct = False
                    _log(f"WRONG {label}: {exc}")
                except Exception:  # an output the checks cannot even read is wrong too
                    correct = False
                    _log(f"WRONG {label}: {traceback.format_exc()}")
            shutil.rmtree(out_dir, ignore_errors=True)
        round_no += 1
        if time.perf_counter() - start >= args.seconds and (recorder is None or round_no >= 2):
            break

    op_medians = [statistics.median(times) for times in op_times]
    for label, times in zip(labels, op_times):
        _log(f"op {label}: median {statistics.median(times):.4f} s, fastest {min(times):.4f} s "
             f"over {len(times)} rounds; {details.get(label)}")
        _log(f"times {label}: " + " ".join(f"{t:.4f}" for t in times))

    if recorder is None:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "run_s": statistics.median(passes[False]),
            "op_p50_s": statistics.median(op_medians),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        untraced_s, traced_s = statistics.median(passes[False]), statistics.median(passes[True])
        overhead = traced_s - untraced_s
        _log(f"median untraced round {untraced_s:.4f} s, traced {traced_s:.4f} s")
        metrics = {"perfbench.trace_overhead_s": overhead}
        for m in spec["per_layer"]:
            metrics.setdefault(m["name"], statistics.median_low(r.get(m["name"], 0) for r in layer_rounds))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.dump(str(trace_path), {"workload": args.workload, "seed": args.seed, "rounds": round_no,
                                        "traced_rounds": len(layer_rounds), "trace_overhead_s": overhead})
        _log(f"trace written to {trace_path}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    _import_program()
    import workloads  # noqa: F401  (numpy, scipy and lportho load here)

    import_s = time.perf_counter() - T_START
    result = measure(args, spec, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
