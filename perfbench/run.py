"""The benchmark contract's entry point: ``python3 perfbench/run.py``.

Started as a script, Python puts ``perfbench/`` itself on ``sys.path``,
not the checkout root, so the package would not import; put the root
there and hand over to the one command.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
