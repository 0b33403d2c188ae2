"""``python -m stabindex``: the same command line as the ``stabindex`` script."""

import sys

from .cli import main

sys.exit(main())
