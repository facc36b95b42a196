"""Rows 0..n-1 in one part, or in two halves with the second on a helper thread.

``run(work, n, split)`` calls work(0, n) unless ``split`` is true, n > 1 and
``workers()`` is above one; then it calls work(0, n // 2) in the caller's
thread and work(n // 2, n) on a thread started for this call, under a copy of
the caller's context (which carries ``np.errstate``).  It joins that thread,
then raises the caller's error before the helper's.  The halves run at once,
so each writes only what the other neither reads nor writes.  Two parts, not
one per CPU: only two were measured against one, on 2 CPUs (see CHANGES.md),
and the affinity mask does not see a CPU quota.  ``threading`` is loaded by
numpy already; ``concurrent.futures`` would import logging.
"""

import contextvars
import os
import threading


def workers() -> int:
    """The CPUs this process may run on, read at each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(work, n: int, split: bool) -> None:
    """Call work(start, stop) over rows 0..n-1 as the module docstring says."""
    if not split or n < 2 or workers() < 2:
        work(0, n)
        return
    half, errors = n // 2, []

    def second_half():
        try:
            work(half, n)
        except BaseException as error:  # raised by the caller after the join
            errors.append(error)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(second_half,))
    helper.start()
    try:
        work(0, half)
    finally:
        helper.join()
    if errors:
        raise errors[0]
