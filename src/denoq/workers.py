"""Work split into shares and run over the usable CPUs in forked children.

Parallel work takes one form: a list of shares, each worked by the same
callable, that run_shares() deals over the CPUs. This process works the
first share itself and forks one child for each other share. A child
inherits the parent's memory copy-on-write and sends back only its pickled
outcome through a pipe, so a share should return something small. Each
caller cuts its own shares: share_slices() cuts work into even shares by
element count, and toydiff._row_shares() cuts sampler runs into row shares
at multiples of its row quantum. What every caller can rely on:

- one usable CPU means no fork: every share runs in this process;
- a pipe or a fork that raises OSError runs that share in this process, at
  once;
- a child that dies without a result is a DenoqError that names its share
  and its wait status (the CLI's exit 2);
- every child is reaped before run_shares returns or raises, and the error
  it raises is the first one in share order;
- while children run, numpy's bundled OpenBLAS runs one thread in this
  process and in each child, whatever the import order, so that the shares
  do not start one BLAS pool each on the same CPUs; this process gets its
  own count back before run_shares returns or raises. Where numpy bundles
  no OpenBLAS with a thread setter, the count is left as it is.

Work whose result is large writes it into arrays from shared_arrays()
instead: they live in an anonymous MAP_SHARED mapping, so what a child
writes there is what this process reads, with nothing pickled.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import mmap
import os
import pickle

import numpy as np

from .errors import DenoqError

# Work is split into even shares, one per usable CPU, only while every share
# keeps at least about this many elements. On a 2 vCPU Xeon (1 BLAS thread)
# the PTS vote scores ~60 ns per element at D = 3, so a share this size is
# ~30 ms of voting. A share in a child costs more than its work: at 78 MB
# RSS an empty share took 3.3 ms from fork to join, a 20 480 x 32 vote
# share that takes 28.8 ms in this process ended 9 ms later in a child
# (37.9 ms for the two-share vote), and this process took about 800
# copy-on-write page faults while the child lived (median of 25). A w4a8
# layer (1 280 x 64) stays whole; a rescue_wide layer (20 480 x 64) splits.
_SHARE_ELEMENTS = 500_000


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_slices(items: int, elements: int) -> list:
    """Slices of range(items) in order, one per share of work on that many
    elements: at most one per usable CPU and one per item, and more than
    one only while they average at least _SHARE_ELEMENTS elements."""
    k = max(1, min(usable_cpus(), items, elements // _SHARE_ELEMENTS))
    edges = [items * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def shared_arrays(shapes) -> list:
    """Zero-filled float64 arrays of the given shapes, in order, in one
    anonymous MAP_SHARED mapping (mmap's default flags on Unix), so a
    forked child's writes to them are seen here. The mapping is unmapped
    when the last of them is freed.
    """
    offsets, size = [], 0
    for shape in shapes:
        size = -(-size // 64) * 64  # each array starts on a cache line
        offsets.append(size)
        size += 8 * math.prod(shape)
    buf = mmap.mmap(-1, max(size, 1))
    return [
        np.frombuffer(buf, np.float64, math.prod(shape), offset).reshape(shape)
        for shape, offset in zip(shapes, offsets)
    ]


def is_shared(a: np.ndarray) -> bool:
    """Whether a is a C-contiguous float64 array in a shared_arrays()
    mapping, so that what a forked child writes into it is seen here."""
    layout = a.dtype == np.float64 and a.flags.c_contiguous
    while isinstance(a, np.ndarray):
        a = a.base
    return layout and isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS
    (numpy.libs/libscipy_openblas64_*.so), through ctypes, or None where
    there is no such library or it lacks them. Its symbols are not global,
    so ctypes.CDLL(None) does not find them."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    if len(found) != 1:
        return None
    try:
        lib = ctypes.CDLL(found[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _set_blas_threads(n: int):
    """Set numpy's bundled OpenBLAS to n threads; the count it had, or None
    (and no change) where there is no setter."""
    calls = _blas_thread_calls()
    if calls is None:
        return None
    get, put = calls
    old = get()
    put(n)
    return old


def _run(work, share):
    """work(share)'s result, or the exception it raised."""
    try:
        return work(share)
    except Exception as exc:
        return exc


def _fork(work, share):
    """(pid, read fd) of a child that pickles _run(work, share) into the
    pipe, or None when no child could be started."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(_run(work, share))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _join(child, what: str):
    """What a child's work returned or raised, once the child is reaped; a
    child that ended without a result gives a DenoqError naming what."""
    pid, read_fd = child
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(payload)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
        return DenoqError(f"{what} ended without a result ({how})")


def run_shares(work, shares, what) -> list:
    """work(share) for every share, in share order.

    This process works the first share itself, after starting each other
    one in a forked child, or running it here when no child can be
    started; what(share) names a share's work in the error of a child that
    dies. Once every child is reaped, the first error in share order is
    raised.
    """
    forks = usable_cpus() > 1 and len(shares) > 1
    outcomes = [None] * len(shares)
    children = {}
    # Set before the first fork, so that each child inherits one thread.
    threads = _set_blas_threads(1) if forks else None
    try:
        for i in range(1, len(shares)):
            child = _fork(work, shares[i]) if forks else None
            if child is None:
                outcomes[i] = _run(work, shares[i])
            else:
                children[i] = child
        outcomes[0] = _run(work, shares[0])
    finally:
        for i, child in children.items():
            outcomes[i] = _join(child, what(shares[i]))
        if threads is not None:
            _set_blas_threads(threads)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
