"""Benchmark entry point.

    python3 perfbench/run.py --workload n2v-rmat16 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the benchmark imports the ``repro``
package from ``src/`` next to this directory and refuses (exit code 2, no
result printed) when it is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {root / 'src'}; run the benchmark "
            f"from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Import the checkout's sources and this package, not the script's own
    # directory (whose module names are only meant as perfbench.<name>).
    sys.path[:1] = [str(root / "src"), str(root)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
