"""Set-up time of a fresh ``import gnar.cli``, the reference kernel that
measures the host's speed, and the facts of the machine."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

IMPORT = ["-c", "import gnar.cli"]
# reference_seconds() on a 2.1 GHz Xeon in a fast phase; set-up times are
# scaled to this reference speed
REFERENCE_S = 0.0135
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| (\s*)(\S+)")


def _fresh_import(root: Path, env: dict, flags: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *flags, *IMPORT], cwd=root, env=env,
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return proc.stderr


def setup_seconds(root: Path, env: dict) -> tuple[float, float]:
    """Wall time of one fresh interpreter importing ``gnar.cli``, and the
    mean of the reference timings taken right before and right after it."""
    ref_before = reference_seconds()
    start = time.perf_counter()
    _fresh_import(root, env, [])
    elapsed = time.perf_counter() - start
    return elapsed, (ref_before + reference_seconds()) / 2


def reference_seconds(small_arrays: bool = False) -> float:
    """Wall time of a fixed reference kernel, 13-21 ms on a 2.1 GHz Xeon.

    A Python integer loop and 300 products of 64 x 64 matrices, the same
    mix of interpreter and BLAS work as the jobs.  Timing it right before
    and after a job tells how fast the host was running at that moment.
    ``small_arrays`` adds 8,500 rounds of arithmetic on a 50-element array
    kept in a dict, 27-40 ms in all: the work of the per-node loops, which
    the host's slow phases slow more than the integer loop and far more
    than BLAS.
    """
    import numpy

    a = numpy.random.default_rng(0).random((64, 64))
    v = numpy.arange(50.0)
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(300):
        a @ a
    if small_arrays:
        d = {}
        for i in range(8_500):
            w = v * 0.5 + 1.0
            d[i % 97] = float(w[i % 50])
    return time.perf_counter() - start


def _import_tree(stderr: str):
    """``-X importtime`` lines as ``(name, self_s, children)`` roots.

    The report lists a module after everything it imported, two spaces
    deeper per level, so a module adopts the deeper entries above it.
    """
    stack: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        depth = len(m.group(2)) // 2
        node = (m.group(3), int(m.group(1)) * 1e-6, [])
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    return [node for _, node in stack]


def _attribute(nodes, owner: str, out: dict[str, float]) -> None:
    """Add each module's self time to the nearest numpy or scipy import
    that encloses it, or to ``gnar`` when there is none."""
    for name, self_s, children in nodes:
        top = name.split(".")[0]
        mine = top if top in ("numpy", "scipy") else owner
        out[mine] += self_s
        _attribute(children, mine, out)


def import_breakdown(root: Path, env: dict, repeats: int) -> dict[str, float]:
    """Median ``-X importtime`` split of ``import gnar.cli``.

    A module's own import time counts for numpy or scipy when one of them
    imported it, directly or not; ``setup.import_gnar_s`` is the rest: the
    package's modules and the standard library they pull in.
    """
    runs = []
    for _ in range(repeats):
        roots = [n for n in _import_tree(
            _fresh_import(root, env, ["-X", "importtime"]))
            if n[0] == "gnar.cli"]
        split = {"numpy": 0.0, "scipy": 0.0, "gnar": 0.0}
        _attribute(roots, "gnar", split)
        runs.append({f"setup.import_{k}_s": v for k, v in split.items()})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            return int(ctypes.CDLL(str(lib))
                       .scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def facts() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }
