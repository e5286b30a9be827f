import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules and the checkout's sources, as run.py arranges them
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
