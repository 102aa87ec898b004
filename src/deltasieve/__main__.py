"""`python -m deltasieve ...`: the same command line as `deltasieve ...`."""

from .cli import main

raise SystemExit(main())
