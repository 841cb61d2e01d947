"""``python -m fedcoreset``: the ``fedcoreset`` command, also from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
