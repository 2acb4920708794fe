"""Host-speed calibration for timings taken on a shared host.

On a shared host the speed of a virtual CPU changes from second to
second, by up to 2x, as other tenants load the same physical cores. No
estimator over wall times inside a run removes that: a whole run can
fall in a slow phase. So every timed step is bracketed by a fixed
calibration suite, run just before and just after it, and the step's
wall time is rescaled to the host speed at which the suite takes
REFERENCE_S:

    adjusted = wall * REFERENCE_S / mean(suite before, suite after)

The suite is fixed pure-Python work that never calls the program: a
regex scan with counting, an ElementTree parse, a branchy loop over
small ints and a dict scan with tuple keys, which are the kinds of work
the program's hot layers do. A change to the program therefore moves the
adjusted time exactly as it moves the wall time, while a slow phase of
the host slows the suite and the step alike. Steps should be short
(well under a second), so that the suite before and after sees the same
host phase as the step.
"""

from __future__ import annotations

import gc
import random
import re
import time
from collections import Counter
from xml.etree import ElementTree

REFERENCE_S = 0.015  # about the suite's wall time on the reference host (see README)

_rng = random.Random(20170504)
_TEXT = "".join(
    f'<Call{_rng.randrange(50)} hName="C:\\\\dir{_rng.randrange(500)}\\\\f{_rng.randrange(9999)}.dll" '
    f'pid="{_rng.randrange(900)}" />\n'
    for _ in range(2500)
)
_CALL = re.compile(r'<(\w+) hName="([^"]*)" pid="(\d+)" />')
_XML = (
    "<Profile><Execution>"
    + "".join(
        f'<Call{_rng.randrange(50)} hName="C:\\dir{_rng.randrange(500)}\\f{_rng.randrange(9999)}.dll" '
        f'Time="{i}" Return="0" />'
        for i in range(2000)
    )
    + "</Execution></Profile>"
)
_VX = [_rng.choice((1, -1, 0)) for _ in range(60_000)]
_VY = [_rng.choice((1, -1, 0)) for _ in range(60_000)]
_PAIRS = {(i, j): _rng.random() for i in range(70) for j in range(i + 1, 70)}
_NAMES = {i: f"s{i:04d}" for i in range(70)}


def _regex_count() -> int:
    counts: Counter = Counter()
    for name, path, _ in _CALL.findall(_TEXT):
        counts[(name, path.lower().split("\\")[-1])] += 1
    sets = [frozenset(key for key in counts if len(key[1]) % m == 0) for m in (2, 3, 5)]
    return len(sets[0] & sets[1]) + len(sets[1] | sets[2])


def _xml_events() -> int:
    events = []
    for element in ElementTree.fromstring(_XML).find("Execution"):
        attributes = []
        stamp = 0
        for key, value in element.attrib.items():
            if key == "Time":
                stamp = int(value)
            else:
                attributes.append((key, value))
        events.append((element.tag, tuple(attributes), stamp))
    return len(frozenset(events))


def _branchy_loop() -> int:
    plus_num = plus_den = minus_num = minus_den = 0
    for a, b in zip(_VX, _VY):
        if a == 1:
            plus_den += 1
            if b == 1:
                plus_num += 1
        elif a == -1:
            minus_den += 1
            if b == -1:
                minus_num += 1
    return plus_num + plus_den + minus_num + minus_den


def _dict_scan() -> tuple:
    best = None
    for _ in range(6):
        for (a, b), value in _PAIRS.items():
            ra, rb = _NAMES[a], _NAMES[b]
            key = (value, (ra, rb) if ra < rb else (rb, ra))
            if best is None or key < best:
                best = key
    return best


def suite_s() -> float:
    """Wall seconds of one run of the calibration suite.

    The cyclic garbage collector is off while it runs: a collection would
    walk the program's live objects, and the suite would then time the
    program's heap instead of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _regex_count()
        _xml_events()
        _branchy_loop()
        _dict_scan()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Times steps between calibration runs.

    ``time(fn)`` returns the step's wall seconds and the factor that
    rescales them to the reference host speed. The suite run after one
    step is also the one before the next, so back-to-back steps cost one
    suite run each. ``suites`` keeps every suite time for reporting.
    """

    def __init__(self) -> None:
        suite_s()  # warm-up: first calls allocate and fill caches
        self.suites = [suite_s()]

    def time(self, fn) -> tuple[float, float]:
        before = self.suites[-1]
        started = time.perf_counter()
        fn()
        wall = time.perf_counter() - started
        self.suites.append(suite_s())
        return wall, REFERENCE_S / ((before + self.suites[-1]) / 2)
