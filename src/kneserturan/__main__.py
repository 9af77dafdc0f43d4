"""``python -m kneserturan``: the command line, as in ``kneserturan.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
