"""``python -m repro`` entry point."""

import os
import sys

if __name__ == "__main__":
    # The program computes on one thread and calls no threaded BLAS
    # routine, so numpy's OpenBLAS must not start its pool of
    # ``nproc - 1`` workers, each of which spins for ~0.1 s of CPU after
    # numpy loads.  The entry point owns this, as ``serve_main`` owns
    # the GIL switch interval: set before anything imports numpy,
    # inherited by every process the program starts, and a value the
    # user exported wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    from repro.cli import main

    sys.exit(main())
