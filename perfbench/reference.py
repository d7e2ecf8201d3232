"""Host-speed reference: fixed work that does not depend on ``gementropy``.

    python3 perfbench/reference.py GEMS_FILE

Imports numpy, as every CLI invocation does, and scores the given crosswalk
with the pure-Python oracle. ``run.py`` starts it as a fresh process on the
same CPU as the CLI invocations and between them, so that its wall time
follows the speed that CPU had while the workload ran.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy  # noqa: F401  (the CLI pays this import too)

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def main() -> int:
    oracle.score_corpus(Path(sys.argv[1]).read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
