"""Forked workers for the work that need not wait its turn.

One fork path serves every caller. start() runs one callable in a forked
child, and Job.result() gets back what it returned, or raises what it
raised; run_shares() deals a list of shares over the CPUs on top of that
pair. A child inherits the parent's memory copy-on-write and sends back
only its pickled outcome through a pipe, so the work should return
something small. What every caller can rely on:

- one usable CPU means no fork: the work runs in this process;
- a pipe or a fork that raises OSError runs the work in this process, at
  once;
- a child that dies without a result is a DenoqError that names its work
  and its wait status (the CLI's exit 2);
- an error reaches the caller only where it asks for the job's result, so
  a caller that asks in the order a sequential run would meet the work
  raises errors in that order;
- every child is reaped: asking for a job's outcome reads its pipe to the
  end and waits for it, and run_shares does so in a finally.
"""

from __future__ import annotations

import os
import pickle

from .errors import DenoqError


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(work):
    """work()'s result, or the exception it raised."""
    try:
        return work()
    except Exception as exc:
        return exc


class Job:
    """One callable's outcome, computed in a forked child or in this process."""

    def __init__(self, what: str, outcome=None, child=None):
        self._what = what
        self._outcome = outcome
        self._child = child  # (pid, read fd) until joined

    def outcome(self):
        """What the work returned, or the exception it raised; joins the
        child on the first call. Never raises a worker's error."""
        if self._child is not None:
            pid, read_fd = self._child
            try:
                with os.fdopen(read_fd, "rb") as fh:
                    payload = fh.read()
            finally:
                self._child = None
                _, status = os.waitpid(pid, 0)
            try:
                self._outcome = pickle.loads(payload)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
                self._outcome = DenoqError(f"{self._what} ended without a result ({how})")
        return self._outcome

    def result(self):
        """What the work returned; raises what it raised."""
        outcome = self.outcome()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _fork(work):
    """(pid, read fd) of a child that pickles _run(work) into the pipe, or
    None when no child could be started."""
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
            payload = pickle.dumps(_run(work))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def here(work, what: str) -> Job:
    """start's job, run in this process before here returns."""
    return Job(what, outcome=_run(work))


def start(work, what: str) -> Job:
    """Start work() in a forked child; what names the work in the error of
    a child that dies. With one usable CPU, or when no child can be
    started, work runs here before start returns. The job keeps no
    reference to work, so what work alone holds is freed here."""
    child = _fork(work) if usable_cpus() > 1 else None
    if child is None:
        return here(work, what)
    return Job(what, child=child)


def run_shares(work, shares, what) -> list:
    """The outcome of work(share) for every share, in share order.

    This process works the first share itself, after starting each other
    one in a child (see start); what(share) names a share's work.
    """
    jobs = []
    try:
        for share in shares[1:]:
            jobs.append(start(lambda share=share: work(share), what(share)))
        first = _run(lambda: work(shares[0]))
    finally:
        rest = [job.outcome() for job in jobs]
    return [first, *rest]
