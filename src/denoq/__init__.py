"""denoq: post-training quantization for small diffusion denoisers.

Low-bit weight/activation quantization built from three cooperating pieces:
learned per-channel equivalent scaling trained with straight-through
gradients, timestep-aware loss weighting for the multi-step sampler, and a
voted power-of-two rescue for channels the shared activation scale leaves
starved. Quantized layers execute as integer matmuls with the rescue folded
into the weights as bit shifts.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to "1" where they are unset, before any denoq module
loads numpy. denoq's work runs in one forked worker per usable CPU, and
a worker that started its own BLAS thread pool would compete with the
others for the same CPUs. A value the user set is kept. The variables
have no effect when numpy was imported before denoq, so
workers.run_shares also sets numpy's bundled OpenBLAS to one thread
while it has forked workers, whatever the import order, and then gives
this process its own count back.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
