"""Work split into parts that run on threads of their own, one a core.

``sm_shells`` counts its K-shell draw in parts, and ``integrate_refine``
sums its chunks of upper limits in parts.  Each part writes only its own
results, and every value is the same for any number of parts, so the
reports do not depend on the core count.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable

# most parts one call is split into, one thread each: both threaded
# routines were timed on a 2-core box, and no split above two was measured
MAX_PARTS = 2


def part_count(items: int) -> int:
    """min(MAX_PARTS, the cores this process may run on, ``items``), and
    at least 1: one part where the process may run on one core (or
    ``os.cpu_count`` does not know) or there is one item to split."""
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return max(1, min(MAX_PARTS, cores, items))


def run_parts(work: Callable[[int], object], parts: int) -> list:
    """[work(0), ..., work(parts - 1)].

    This thread runs part 0, and a ``threading.Thread`` each other part,
    in a copy of the caller's ``contextvars`` context: numpy's
    ``errstate`` lives there.  Once every part has ended, the error of the
    first failing part, if any, is raised here.  The workers must call
    nothing that ``perfbench/spans.py`` traces: its tracer keeps one span
    stack per process."""
    results: list = [None] * parts
    errors: list = [None] * parts

    def run(p):
        try:
            results[p] = work(p)
        except BaseException as exc:    # raised below, once all have ended
            errors[p] = exc

    workers = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, p))
               for p in range(1, parts)]
    for w in workers:
        w.start()
    run(0)
    for w in workers:
        w.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
