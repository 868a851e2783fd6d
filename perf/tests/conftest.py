"""Run with ``python3 -m pytest perf/tests`` from the repo root."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
for entry in (PERF, PERF.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
