"""Pin BLAS to one thread before any test module imports numpy, as CI and the benchmark run the program.

Results are bit-exact only for a fixed BLAS setup, and a multi-threaded BLAS makes the timed tests
(say, the criterion-5 sweep's wall-time bound) read the host's load. A value already set wins.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
