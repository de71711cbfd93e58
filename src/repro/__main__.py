"""``python -m repro`` — the experiment-runner CLI.

The ``__name__`` guard is load-bearing: spawn-start worker processes
(``repro run --parallel``) re-import the main module as
``__mp_main__``, and must not re-enter the CLI.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
