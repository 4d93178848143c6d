"""Self-tests of the benchmark; not part of the repository's tier-1 suite.

    python -m pytest esrbench/tests -q
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

common.bootstrap()
