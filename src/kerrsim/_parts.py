"""Forked parts: calls run at once, the first in this process and each later one in a forked
child, whose value or exception comes back with its log records and warnings in one pickle.
numpy's BLAS is held at one thread while children run, so that no idle BLAS thread spins on a
core that a part runs on; where that hold is unavailable, or another thread runs, the caller
gets one worker (_usable_cpus)."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import sys
import threading
import warnings

import numpy as np


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheel bundles, as numpy loaded it, or None where numpy
    uses another BLAS or none is found."""
    import ctypes
    import glob

    here = os.path.dirname(np.__file__)
    for pattern in (os.path.join(os.path.dirname(here), "numpy.libs", "*openblas*"),
                    os.path.join(here, ".dylibs", "*openblas*")):
        for path in glob.glob(pattern):
            try:
                # RTLD_NOLOAD: the copy numpy loaded, never a second one
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread for the block, then restore its thread count; change
    nothing where _openblas finds no library."""
    lib = _openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def _usable_cpus() -> int:
    """CPUs this process may run parts on; 1 where it cannot fork, or should not: where
    numpy's BLAS cannot be held at one thread, or while another thread runs, as a forked child
    may inherit a lock that thread holds, and deadlock on it."""
    if not hasattr(os, "fork") or threading.active_count() > 1 or _openblas() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _worker_count(most: int) -> int:
    """Processes for work worth at most ``most`` of them: one per usable CPU, at least one."""
    return max(1, min(_usable_cpus(), most))


class _Kept(list):
    """A forked child's log records and warnings (see _replay); as the filter of its ``kerrsim``
    logger it keeps each record, its message formatted so that it pickles, and passes none."""

    def filter(self, record) -> bool:
        record.msg, record.args = record.getMessage(), None
        record.exc_info = record.exc_text = None
        self.append(record)
        return False


def _child(part, pipe: int) -> None:
    """Run ``part`` in a forked child, write ``(value, exception or None, _Kept events)`` to the
    file descriptor ``pipe``, pickled, and exit 0, or 255 if that pickle cannot be written."""
    import logging

    status, events, value, error = 255, _Kept(), None, None
    try:
        logging.getLogger("kerrsim").filters = [events]  # the caller's filters act in _replay
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, category, filename, lineno, *_: events.append(
                (message, filename, lineno))
            try:
                value = part()
            except Exception as exc:  # the part's outcome, given back by run_parts
                error = exc
        with open(pipe, "wb") as out:
            pickle.dump((value, error, events), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _replay(events: list) -> None:
    """Give a child's log records to this process's ``kerrsim`` logger, and raise its
    warnings again here, under the filters and the registry of the module each came from,
    so that a repeat is shown or not as in one process."""
    import logging

    for event in events:
        if not isinstance(event, tuple):
            logging.getLogger("kerrsim").handle(event)
            continue
        message, filename, lineno = event
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, type(message), filename, lineno,
                               getattr(module, "__name__", None), registry)


def run_parts(parts: list) -> list:
    """Call ``parts[0]`` here while each later part runs in a forked child (see _child), and
    return every part's outcome, in order: its value, the exception it raised, or a
    ChildProcessError where no child ran it to the end (killed, or never started).

    Every pipe is read and every child reaped first, and the log records and
    warnings of each child that sent its pickle are given here in part order.
    Only an exception of ``parts[0]`` is raised, once the children are killed
    and reaped."""
    pids, pipes, unstarted = [], [], None
    with _one_blas_thread() if len(parts) > 1 else contextlib.nullcontext():
        try:
            try:
                for part in parts[1:]:
                    read, write = os.pipe()
                    pipes.append(open(read, "rb"))
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _child(part, write)
                    finally:
                        os.close(write)  # the child's copy alone, so its exit ends the pipe
                    pids.append(pid)
            except OSError as exc:  # no process or pipe to be had: the parts left have no child
                unstarted = ChildProcessError(f"a worker process could not start ({exc})")
            outcomes = [parts[0]()]
            payloads = [pipe.read() for pipe in pipes]
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pipe in pipes:
                pipe.close()
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for payload, code in zip(payloads, codes):
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            outcomes.append(ChildProcessError(f"a worker process failed ({how})"))
            continue
        value, error, events = pickle.loads(payload)
        _replay(events)
        outcomes.append(value if error is None else error)
    return outcomes + [unstarted] * (len(parts) - len(outcomes))


def values(outcomes: list) -> list:
    """``outcomes``, such as run_parts gives, when none is an exception; else the first is raised."""
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes
