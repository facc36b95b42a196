"""Rows 0..n-1 split into contiguous parts, one per CPU the process may run
on, at most ``MAX_PARTS``.

``run(work, n, most)`` splits the rows into count = max(1, min(workers(),
most, n)) ranges with bounds k * n // count, and calls work(start, stop) for
the first range in the caller's thread and for each other on a helper thread
started for this call, under a copy of the caller's context (which carries
``np.errstate``).  It joins every helper, then raises the parts' errors in
part order.  Parts run at once, in no fixed order, so each writes only what
no other reads or writes.  ``threading`` is loaded by numpy already;
``concurrent.futures`` would import logging.
"""

import contextvars
import os
import threading

# Measured at one and two parts on a 2-CPU machine (see CHANGES.md); the
# affinity mask does not see a CPU quota, so more wait on runs that measure them.
MAX_PARTS = 2


def workers() -> int:
    """The CPUs this process may run on, read at each call, at most ``MAX_PARTS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_PARTS, cpus)


def run(work, n: int, most: int) -> None:
    """Call work(start, stop) over at most ``most`` parts of rows 0..n-1, as
    the module docstring says."""
    count = max(1, min(workers(), most, n))
    bounds = [k * n // count for k in range(count + 1)]
    errors = [None] * count

    def part(k):
        try:
            work(bounds[k], bounds[k + 1])
        except BaseException as error:  # raised by the caller once every part has joined
            errors[k] = error

    helpers = []
    try:
        for k in range(1, count):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(part, k))
            helper.start()
            helpers.append(helper)
        work(bounds[0], bounds[1])
    finally:
        for helper in helpers:
            helper.join()
    for error in filter(None, errors):
        raise error
