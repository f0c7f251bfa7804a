"""Pin BLAS to one thread for the whole test suite.

The suite's time follows OpenBLAS's thread count and the machine's load, so
one thread keeps it comparable across runs, as `perfbench/run.py` does for
the benchmark. The variables are read when numpy loads, which is why this
file sits at the repository root: pytest loads it before it collects
`perfbench/tests`, whose modules import numpy. A value already set in the
environment wins.
"""

import os
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was loaded before the root conftest.py; BLAS keeps its default thread count")
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
