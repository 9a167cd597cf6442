"""Import denoq before any test module loads numpy, so the suite runs at
the package's default of one BLAS thread (see denoq/__init__.py). Tests
that compare thread counts set the variables for their subprocesses."""

import denoq  # noqa: F401
