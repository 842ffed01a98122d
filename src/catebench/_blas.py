"""One BLAS thread per catebench process.

numpy's bundled OpenBLAS starts one thread per CPU when it loads. The
networks here are small: a second thread saves little wall time, costs
much CPU even when idle, oversubscribes the CPUs under a process pool, and
changes the last bits of every product, so result bytes would depend on
the machine. Commands use the CPUs through worker processes instead
(``learners.side_by_side``: a sweep's cells and a learner's independent
networks), each network on one BLAS thread. ``pin_one_thread`` runs once,
when the package is imported.
"""

from __future__ import annotations

import ctypes
import glob
import os
from pathlib import Path

_SET = "scipy_openblas_set_num_threads64_"
_GET = "scipy_openblas_get_num_threads64_"


def openblas():
    """numpy's bundled OpenBLAS with its thread calls typed, or None if it has none."""
    import numpy as np  # here, so that pin_one_thread sets the variable before numpy loads

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            setter, getter = getattr(lib, _SET), getattr(lib, _GET)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return lib
    return None


def pin_one_thread() -> None:
    """Run BLAS on one thread in this process and in every process it starts.

    The environment variable is read by an OpenBLAS that loads later: in
    this process if numpy is not imported yet, and in spawned workers and
    child processes. The library call covers a process that loaded numpy
    before catebench; forked workers inherit its setting.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    lib = openblas()
    if lib is None:
        import logging  # only here: attribute and evaluate start without it

        logging.getLogger(__package__).warning(
            "%s not found in numpy's bundled OpenBLAS; BLAS threads are left to "
            "OPENBLAS_NUM_THREADS=1", _SET)
        return
    getattr(lib, _SET)(1)
