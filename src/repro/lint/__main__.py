"""``python -m repro.lint`` entry point."""

import sys

from repro.lint.cli import main

if __name__ == "__main__":
    sys.exit(main())
