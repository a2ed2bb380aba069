import sys
from pathlib import Path

QBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(QBENCH), str(QBENCH.parent / "src")]
