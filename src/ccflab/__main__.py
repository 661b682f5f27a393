"""python -m ccflab: the command-line interface without the installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
