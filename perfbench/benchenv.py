"""Process setup shared by every perfbench entry point.

Importing this module touches nothing heavy: it must run before numpy is
imported, because the BLAS/OpenMP thread pins are read at library load.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Repository (checkout) root: the parent of this package's directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, traces and run records (ignored by git).
OUT = ROOT / ".perfbench-out"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin every BLAS/OpenMP pool to one thread and put ``src`` on the path.

    One thread is the single-threaded baseline the benchmark reports, and
    it fixes the floating-point reduction order so that iteration and
    operator-apply counts repeat exactly from run to run.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no package at {SRC / 'repro'}; run from a full "
            "checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
