"""Set-up timing of one workload in a fresh process.

    python3 setup_child.py <config.json>

Times importing nsstab, loading the config and building the space, the
reference and the mask (the shared state `Pipeline` builds lazily), then
prints one JSON line with the time and this process's numeric environment.
"""

import ctypes
import json
import sys
import time


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(config_path) -> dict:
    start = time.perf_counter()
    import nsstab
    from nsstab.config import ExperimentConfig
    cfg = ExperimentConfig.load(config_path)
    space = cfg.build_space()
    cfg.build_reference(space)
    cfg.build_chi(space)
    elapsed = time.perf_counter() - start

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"setup_s": elapsed, "nsstab_file": nsstab.__file__,
            "numpy": np.__version__, "python": sys.version.split()[0],
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
