"""`python -m bangcalc`: the command line of `cli`."""
from .cli import main

raise SystemExit(main())
