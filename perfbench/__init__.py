"""The repo's one benchmark: four named workloads over the two-cloud top-k stack.

``python3 perfbench/run.py`` is the only entry point; see ``README.md`` in
this directory for the workload and metric glossary.  Layers are measured
from outside the program: nothing under ``src/`` knows this package exists.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Everything the benchmark builds or spills (kernel extension, temp files,
#: per-run detail records) lives here, inside the checkout.
BUILD_DIR = ROOT / ".bench_build"


def bootstrap() -> None:
    """Make ``repro`` importable and keep every write inside the checkout.

    Must run before the first ``import repro``: the crypto backend resolves
    (and, on first use, compiles) the GMP kernel at import time, and the
    daemon launcher asks ``tempfile`` for its ready file.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise FileNotFoundError(f"program sources not found under {src}")
    for entry in (str(ROOT), str(src)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ.setdefault("REPRO_KERNEL_CACHE", str(BUILD_DIR / "gmp-kernel"))
