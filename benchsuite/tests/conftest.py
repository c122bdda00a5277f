"""Put the benchmark's modules on ``sys.path`` for its self-tests.

Run with ``python3 -m pytest benchsuite/tests`` from the repository root.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
