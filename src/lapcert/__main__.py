"""Console entry point: applies ``--threads`` to BLAS before numpy loads.

OpenBLAS and MKL read their thread counts once, when numpy is imported, and
`lapcert.cli` imports numpy, so its `main` cannot cap them.  This module
reads the flag from argv first, sets the BLAS variables, then runs the CLI.
A count outside [1, MAX_THREADS] is left to the CLI to reject (exit 2).

    lapcert all --config CONFIG [--threads N]
    python -m lapcert all --config CONFIG [--threads N]
"""
import argparse
import os
import sys

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 256


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the flag alone, abbreviations included, as the CLI's parser reads it
    ap = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    ap.add_argument("--threads", type=int, default=None)
    try:
        threads = ap.parse_known_args(argv)[0].threads
    except argparse.ArgumentError:   # the CLI reports it
        threads = None
    if threads is not None and 1 <= threads <= MAX_THREADS:
        for var in BLAS_VARS:
            os.environ[var] = str(threads)
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
