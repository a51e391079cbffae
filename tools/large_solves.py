"""Print the large PCG solves: status, iterations, replacements and the
true relative residual of the gentle (1, 2, 3) and stiff (0, 2, 8) model
systems at n = 2^17, the prime 131071 and 2^20, each with its p-tilde over
the paper's exponent grid and the all-ones right-hand side.

    PYTHONPATH=src python tools/large_solves.py

Iteration counts follow the summation order of the BLAS dot products, so
run it under each OPENBLAS_NUM_THREADS / OMP_NUM_THREADS of interest.
It prints and asserts nothing else.
"""

import os
import time

import numpy as np

from lportho.toeplitz_preconditioning import (
    ToeplitzSymbol,
    build_toeplitz,
    lp_circulant_minimizer,
    pcg_solve,
    select_p_tilde,
)

MODELS = {"gentle": (1.0, 2.0, 3.0), "stiff": (0.0, 2.0, 8.0)}
SIZES = (2**17, 131071, 2**20)
P_GRID = (1.0, 1.4, 1.6, 1.8, 3.0, 5.0, 10.0)


def main() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unset"))
    print(f"BLAS threads: {threads}")
    print("model,n,p,apply_path,status,iterations,replacements,true_residual,seconds")
    for label, params in MODELS.items():
        for n in SIZES:
            T = build_toeplitz(ToeplitzSymbol.from_model(*params), n)
            t0 = time.perf_counter()
            p = select_p_tilde(T, P_GRID)
            report = pcg_solve(T, np.ones(n), lp_circulant_minimizer(T, p))
            seconds = time.perf_counter() - t0
            print(f"{label},{n},{p:g},{report.apply_path},{report.status},{report.iterations},"
                  f"{report.replacements},{report.true_relative_residual:.3g},{seconds:.3f}")


if __name__ == "__main__":
    main()
