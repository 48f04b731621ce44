"""Host-speed calibration for the benchmark's end-to-end times.

The shared machines this benchmark runs on change speed by up to 2x,
over seconds and over hours, as neighbouring load comes and goes; that
swamps any change to the program.  ``run.py`` therefore times a fixed
pure-Python calibration sample before and after every measured step
-- around each child process, and between the cells of an in-process
pass -- and reports each step's host time scaled to the
reference host: ``time * (REFERENCE_SECONDS / sample) ** SENSITIVITY``
(rates divide instead), where ``sample`` is the median of the samples
around it (:func:`factor`).

One sample is three loops, combined by geometric mean, because
neighbours slow different kinds of code by different amounts.  On the
container described in ``README.md`` a busy neighbour slowed the small
dictionary loop about 1.5x as much as the simulator's hot loop, and
the large-table loop about 0.75x as much; the combination tracks the
simulator (see "Noise" in ``README.md``).  The loops are part of the
benchmark, not of the program, so no change to ``src/`` moves them.
"""

import math
import statistics
import time
from collections import OrderedDict

#: The sample time the adjusted times are reported at, in seconds: the
#: median sample on a 2-vCPU Intel Xeon container with Python 3.11.7
#: in a quiet hour.  It is a fixed scale; any constant would do.
REFERENCE_SECONDS = 0.0245

#: How far the program's host times move per unit move of the sample,
#: on a log scale.  When the host slowed 2.8x between two runs, the raw
#: host times of ``small_pairs`` moved by 0.90-0.95 of the sample's
#: move (README.md, "Noise"), so the scale is the sample's speed to
#: this power.
SENSITIVITY = 0.9

#: Samples taken on each side of a step's own two that its scale also
#: uses (README.md, "Noise").
WINDOW = 6


class _Slot:
    __slots__ = ("tag", "uses")

    def __init__(self, tag):
        self.tag = tag
        self.uses = 0

    def touch(self):
        self.uses += 1
        return self.uses


def lookup_loop(steps=50000):
    """A small set-associative cache over a linear congruential stream:
    dictionary probes, attribute updates and integer arithmetic in a
    working set that fits the core's own caches."""
    sets = [{} for _ in range(64)]
    state = 12345
    hits = 0
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        ways = sets[state & 63]
        tag = (state >> 6) & 255
        slot = ways.get(tag)
        if slot is None:
            if len(ways) >= 8:
                del ways[next(iter(ways))]
            ways[tag] = _Slot(tag)
        else:
            hits += slot.touch()
    return hits


_TABLE_BITS = 18
_TABLE = []


def table_loop(steps=45000):
    """Random probes into a dictionary of 2**18 objects, far larger
    than the core's caches: most probes miss to shared cache or DRAM."""
    if not _TABLE:
        _TABLE.append({
            (key * 2654435761) & 0xFFFFFFFF: _Slot(key) for key in range(1 << _TABLE_BITS)
        })
    table = _TABLE[0]
    mask = (1 << _TABLE_BITS) - 1
    state = 12345
    hits = 0
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = table.get((((state >> 3) & mask) * 2654435761) & 0xFFFFFFFF)
        if slot is not None:
            hits += slot.touch() & 7
    return hits


class _LruCache:
    def __init__(self, sets, ways):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.mask = sets - 1

    def access(self, line):
        ways = self.sets[line & self.mask]
        if line in ways:
            ways.move_to_end(line)
            return True
        if len(ways) >= self.ways:
            ways.popitem(last=False)
        ways[line] = True
        return False


def _walk(root, vpn):
    node = root
    for shift in (27, 18, 9):
        index = (vpn >> shift) & 511
        child = node.get(index)
        if child is None:
            child = node[index] = {}
        node = child
    pte = node.get(vpn & 511)
    if pte is None:
        pte = node[vpn & 511] = vpn * 7 + 1
    return pte


def hierarchy_loop(steps=12000):
    """A toy TLB, page table and two cache levels: method calls,
    ``OrderedDict`` LRU updates and nested-dict walks, the shape of the
    simulator's own hot loop."""
    tlb, l1, l2 = _LruCache(16, 4), _LruCache(64, 8), _LruCache(1024, 8)
    root = {}
    state = 12345
    cycles = 0
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        vpn = (state >> 8) & 0x3FFF if state & 3 else (state >> 4) & 0x3FFFF
        if not tlb.access(vpn):
            _walk(root, vpn)
            cycles += 90
        line = (vpn << 6) | ((state >> 2) & 63)
        if not l1.access(line):
            cycles += 4 if l2.access(line) else 100
        cycles += 1
    return cycles


LOOPS = (lookup_loop, table_loop, hierarchy_loop)


def sample():
    """One calibration sample, in seconds: the geometric mean of the
    three loops' times."""
    total = 0.0
    for loop in LOOPS:
        start = time.perf_counter()
        loop()
        total += math.log(time.perf_counter() - start)
    return math.exp(total / len(LOOPS))


def warm_up():
    """Build the large table and run every loop once, untimed."""
    for loop in LOOPS:
        loop()


def speed(seconds):
    """Host speed of a sample against the reference (below 1: slower)."""
    return REFERENCE_SECONDS / seconds


def factor(samples, first, last):
    """Scale for a step that ran between ``samples[first]`` and
    ``samples[last]``, below 1 when the host ran slower than the
    reference.  It takes the median of those samples and of
    :data:`WINDOW` more on each side: one 25 ms sample swings more from
    moment to moment than a step of 0.2-1 s does."""
    window = samples[max(first - WINDOW, 0):last + WINDOW + 1]
    return speed(statistics.median(window)) ** SENSITIVITY
