"""`python -m buchstaber ...`: the command-line front end, as the installed
`buchstaber` script runs it."""

import sys

from .cli import main

sys.exit(main())
