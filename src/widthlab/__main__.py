"""`python -m widthlab ...` runs the `widthlab` command line."""
import sys

from .cli import main

sys.exit(main())
