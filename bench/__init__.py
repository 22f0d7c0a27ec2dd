"""The repo's layered benchmark (see bench/README.md).

``python3 bench/run.py`` is the only entry point; the modules here are
the harness, not part of the program under test.  Everything the harness
calls lives behind the public entry points of ``src/repro``.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Scale of the warm-up every set-up runs; on the simulator workloads it
#: doubles as the oracle-checked run.
WARMUP_SCALE = 1 / 20


def ensure_program_importable() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when it is missing.

    The benchmark measures the program in its checkout; a directory that
    holds only the benchmark has nothing to measure.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure ({SRC_DIR}/repro is missing)")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
