"""The host's speed of the moment, read from a fixed pure-Python loop.

On a shared host the speed of a CPU changes by a third or more, in phases
of a few seconds and in drifts over minutes, and all pure-Python work
slows alike: the program's exact arithmetic and a fixed loop timed next
to it slow by the same factor.  The benchmark reports its times in
reference seconds: a time measured now, times the loop's reference time
over its time now.  On a host as fast as the reference host in its fast
phase (README) they are close to plain seconds.

The loop is timed in one of two ways, each with its own reference time:
between measurements in the same process (REF_LOOP_S), or on the other
CPU while a measured process runs (REF_BESIDE_S, longer because the two
CPUs share a core).
"""

import time

LOOP_N = 100_000
REF_LOOP_S = 0.008
REF_BESIDE_S = 0.016
BESIDE_PAUSE_S = 0.2            # between two loops beside a measured process


def loop_s():
    """Seconds of one run of the fixed loop, about 10 ms."""
    t = time.perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return time.perf_counter() - t


def to_reference(seconds, loops, ref=REF_LOOP_S):
    """Measured seconds as reference seconds, given loop times taken with them."""
    return seconds * ref * len(loops) / sum(loops)
