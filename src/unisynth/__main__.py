"""``python -m unisynth``: the same entry point as the ``unisynth`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
