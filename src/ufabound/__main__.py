"""``python -m ufabound …`` runs the command line, as the ``ufabound`` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
