"""`python -m qcf COMMAND ...` runs the `qcf` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
