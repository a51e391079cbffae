"""Print the large PCG solves: apply path, status, iterations, replacements
and the true relative residual of the gentle (1, 2, 3) and stiff (0, 2, 8)
model systems at n = 2^17, the prime 131071 and 2^20, each with its
p-tilde over the paper's exponent grid and the all-ones right-hand side.
Two more kinds of row follow: the stiff system at 2^17 and 131071 with the
Strang-type correction of its p = 1 minimizer, which is dense and so runs
in the eigenbasis at the prime too, and a wide operator, t_0 = 3 and
t_k = 0.5^|k| for 1 <= |k| <= n/2 at n = 4096, with its p-tilde, which
runs in real space with the spectral apply.

    PYTHONPATH=src python tools/large_solves.py

Across one and two BLAS threads (OPENBLAS_NUM_THREADS / OMP_NUM_THREADS)
every path, status, iteration count and replacement count is the same, and
only true residuals move, so run it under each thread count of interest.
It prints and asserts nothing else.
"""

import os
import time

import numpy as np

from lportho.toeplitz_preconditioning import (
    ToeplitzOperator,
    ToeplitzSymbol,
    build_toeplitz,
    lp_circulant_minimizer,
    pcg_solve,
    select_p_tilde,
    strang_type_correction,
)

MODELS = {"gentle": (1.0, 2.0, 3.0), "stiff": (0.0, 2.0, 8.0)}
SIZES = (2**17, 131071, 2**20)
P_GRID = (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)
WIDE_N = 4096


def systems():
    """(label, operator, p, corrected): p None means p-tilde over P_GRID."""
    for label, params in MODELS.items():
        for n in SIZES:
            yield label, build_toeplitz(ToeplitzSymbol.from_model(*params), n), None, False
    for n in SIZES[:2]:
        yield "stiff_corrected", build_toeplitz(ToeplitzSymbol.from_model(*MODELS["stiff"]), n), 1.0, True
    half = WIDE_N // 2
    yield "wide", ToeplitzOperator(WIDE_N, {k: 3.0 if k == 0 else 0.5 ** abs(k) for k in range(-half, half + 1)}), None, False


def main() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unset"))
    print(f"BLAS threads: {threads}")
    print("model,n,p,apply_path,status,iterations,replacements,true_residual,seconds")
    for label, T, p, corrected in systems():
        t0 = time.perf_counter()
        p = select_p_tilde(T, P_GRID) if p is None else p
        M = lp_circulant_minimizer(T, p)
        report = pcg_solve(T, np.ones(T.n), strang_type_correction(M) if corrected else M)
        seconds = time.perf_counter() - t0
        print(f"{label},{T.n},{p:g},{report.apply_path},{report.status},{report.iterations},"
              f"{report.replacements},{report.true_relative_residual:.3g},{seconds:.3f}")


if __name__ == "__main__":
    main()
