"""``python -m invlab``: the same command line as the ``invlab`` script."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
