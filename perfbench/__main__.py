"""``python -m perfbench``."""

from perfbench.cli import main

if __name__ == "__main__":  # a spawned workload process re-imports this file
    raise SystemExit(main())
