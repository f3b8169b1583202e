"""Run the OpenBLAS libraries of this process on one thread for a while.

numpy and scipy each bundle an OpenBLAS that starts a worker thread per
extra core.  On the conserved blocks of :mod:`qoc` (at most 18-dim) a second
BLAS thread buys nothing, and once an L-BFGS-B run has woken scipy's worker
it spins between calls for the rest of the run: forked ascents without the
pin took about 3x the wall time.

Pin before forking.  OpenBLAS's own fork handler shuts its thread pool
down, so a child forked inside the pin inherits the count of one and runs
on its one thread.  Setting the count in the child instead starts the pool
again, and the new thread spins for about 0.13 s: such a worker-side pin
took each L-BFGS-B ascent from about 65 to about 150 ms.  The parent's pin
has a cost of its own: a pin, a fork and a restore made an idle parent burn
about 0.25 s of CPU afterwards, where a pin and a restore without a fork
burned none.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

__all__ = ["single_blas_thread"]

_lock = threading.Lock()
_depth = 0
_saved: list = []  # (setter, previous thread count) of the outermost entry


def _setters() -> list:
    """``openblas_set_num_threads_local`` of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    setters = []
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the thread count before the call
        setters.append(setter)
    return setters


@contextmanager
def single_blas_thread():
    """Set every loaded OpenBLAS to one thread, and restore the counts on exit.

    Only libraries already loaded on entry are pinned.  Despite its name,
    ``openblas_set_num_threads_local`` sets a process-wide count, so nested
    and concurrent entries share one pin: the first entry saves and sets the
    counts, and the last exit restores them, also when the body raises.
    Without ``/proc``, a loaded OpenBLAS or the symbol, this does nothing.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(setter, setter(1)) for setter in _setters()]
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for setter, previous in _saved:
                    setter(previous)
                _saved = []
