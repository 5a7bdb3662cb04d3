"""``python -m kerrsim``: the ``kerrsim`` command line (see kerrsim.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
