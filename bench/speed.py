"""A fixed CPU probe that times are scaled by.

The host's CPU speed drifts by up to a quarter over seconds to minutes
(other tenants), and process CPU time drifts with it, so raw timings of
the same code differ between runs.  The probe is a fixed piece of
stdlib-only Python: integer arithmetic, small objects, a keyed sort,
dict updates, and linear scans comparing frozen dataclasses, which is
what the library's large-support loops do.  It uses no Fraction and no
library code, so neither the library nor the tracer can change it.  A
pass times it every ``PROBE_EVERY_S`` seconds of op time and multiplies
each op time by ``REF_PROBE_S`` over the median of its latest probe
times, which reports it at the speed where the probe takes
``REF_PROBE_S``.  Raw figures are reported next to the scaled ones.
"""

import time
from dataclasses import dataclass

REF_PROBE_S = 0.003
PROBE_EVERY_S = 0.2


@dataclass(frozen=True)
class _Point:
    seg: int
    coord: int


_SCAN = tuple(_Point(0, i) for i in range(300))


def probe() -> float:
    """Seconds taken by the fixed probe."""
    t0 = time.perf_counter()
    acc, d = 0, {}
    for i in range(1, 4000):
        acc = (acc * 31 + i) % 1000003
        d[(i & 63, acc & 7)] = acc
    items = [(_Point(i % 3, (i * 7919) % 211), (i * 31) % 17) for i in range(400)]
    items.sort(key=lambda pv: (pv[0].seg, pv[0].coord))
    sums = {}
    for p, v in items:
        key = (p.seg, p.coord)
        sums[key] = sums.get(key, 0) + v
    for target in _SCAN[5::10]:
        for p in _SCAN:
            if p == target:
                break
    return time.perf_counter() - t0
