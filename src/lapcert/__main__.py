"""Console entry point: runs BLAS on one thread, then the CLI.

OpenBLAS and MKL read their thread counts once, when numpy is imported, and
`lapcert.cli` imports numpy, so its `main` cannot cap them.  This module sets
the BLAS variables to 1 first, whatever the environment holds, so a parallel
BLAS reduction never moves a bit of an artifact; `--threads` sizes only the
CLI's kernel and bootstrap pool.  A caller of `lapcert.cli.main` in its own
process sets these variables before numpy loads, as perfbench and the tests do.

    lapcert all --config CONFIG [--threads N]
    python -m lapcert all --config CONFIG [--threads N]
"""
import os
import sys

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
    from .cli import main as cli_main
    return cli_main(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
