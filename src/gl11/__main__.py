"""``python -m gl11``: the command-line front end of gl11.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
