"""Make the harness modules and the library importable from the tests."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
for path in (HARNESS, HARNESS.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
