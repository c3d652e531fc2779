"""Import paths for the benchmark's own tests.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
os.environ.setdefault("REPRO_CACHE", str(ROOT / ".perfbench-state" / "cache"))
