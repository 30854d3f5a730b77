"""`python -m degenlab ...`: the same command-line tool as `degenlab`."""

import sys

from .cli import main

sys.exit(main())
