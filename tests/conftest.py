"""Import denoq before any test module loads numpy, so the suite runs at
the package's default of one BLAS thread (see denoq/__init__.py). Tests
that compare thread counts set the variables for their subprocesses.

Every test fails if it leaves a forked child of this process behind."""

import os

import pytest

import denoq  # noqa: F401


@pytest.fixture(autouse=True)
def no_child_is_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
