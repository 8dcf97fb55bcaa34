"""``python -m repro.cli``: run :func:`repro.cli.main` and exit with its code."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":  # pragma: no cover - importing it runs nothing
    try:
        code = main()
    except BrokenPipeError:
        # e.g. `... campaign report | head`: the reader closed the pipe —
        # not an error worth a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
