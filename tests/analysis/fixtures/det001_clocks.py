"""Fixture: high-resolution and per-thread clock reads (4 DET001 findings).

The graph extractor tags each of these as a CLOCK effect, so DET001
must flag them too.
"""

import time


def stamps():
    return (
        time.perf_counter_ns(),
        time.thread_time(),
        time.thread_time_ns(),
        time.process_time_ns(),
    )
