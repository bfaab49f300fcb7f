"""`python -m incdepth`: the same command line as the `incdepth` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
