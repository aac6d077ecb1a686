"""Paths shared by the benchmark's modules, and the import of the program.

The benchmark runs the program from the checkout's own `src/` tree, never
from an installed copy, so a checkout without the program fails loudly.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# numpy/BLAS may start worker threads; the load model is one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no `src/nilrad` package to benchmark."""


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "nilrad", "__init__.py"))


def nilrad_module(name: str):
    """Import `nilrad.<name>` from the checkout's `src/`.

    `import nilrad.prolong as P` would return the function `prolong`,
    because the package rebinds that attribute, so modules are always
    reached through `importlib`.
    """
    if not program_present():
        raise ProgramMissing(f"no nilrad package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mod = importlib.import_module(f"nilrad.{name}" if name else "nilrad")
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"nilrad was imported from {mod.__file__}, not {SRC}")
    return mod
