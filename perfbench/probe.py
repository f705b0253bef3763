"""One set-up, timed by its parent from process start: ``probe.py <workload>``.

Imports repro from the checkout, resolves the workload's machines and
backends, then prints ``ready`` and exits.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import setup  # noqa: E402

if __name__ == "__main__":
    setup(sys.argv[1])
    print("ready", flush=True)
