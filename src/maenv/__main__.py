"""``python -m maenv``: the same commands as the installed ``maenv`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
