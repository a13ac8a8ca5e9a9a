"""How fast the machine runs right now, measured with code that is not pegstack.

A shared virtual machine runs the same code up to 40 % faster or slower for
tens of seconds to minutes at a time, as other tenants come and go. CPU time
leaves out the moments the process is not running at all, but not this.
So before every timed operation and set-up the benchmark runs a fixed
reference made of the kinds of work a parse does: interpreter arithmetic,
object allocation, tuple copying and fresh pages from the kernel. Its CPU
time over its time at the nominal speed is the machine's slowness at that
moment, and each measured time is divided by the median slowness of the
references taken around it, so times read as at the nominal speed.

The reference runs no pegstack code, so a change to pegstack moves the
scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import mmap
import statistics
from time import process_time as cpu

PAGE = mmap.PAGESIZE
WINDOW = 5  # references in one local median


class _Link:
    __slots__ = ("value", "next")

    def __init__(self, value, next):
        self.value = value
        self.next = next


def _arithmetic() -> None:
    x = 0
    for i in range(10_000):
        x += i * i


def _objects() -> None:
    head = None
    for i in range(3_000):
        head = _Link(i, head)


def _tuples() -> None:
    items = list(range(300))
    kept = []
    for i in range(300):
        kept.append(tuple(items))
        items.append(i)


def _pages() -> None:
    for _ in range(8):
        m = mmap.mmap(-1, 16 * PAGE)
        for i in range(0, 16 * PAGE, PAGE):
            m[i] = 1
        m.close()


# each part with its CPU seconds at the nominal speed
PARTS = ((_arithmetic, 1.0e-3), (_objects, 1.4e-3), (_tuples, 1.1e-3), (_pages, 0.6e-3))


def slowness() -> float:
    """Mean over the parts of CPU time / nominal time: 1.0 at the nominal speed."""
    ratios = []
    for part, nominal in PARTS:
        t0 = cpu()
        part()
        ratios.append((cpu() - t0) / nominal)
    return sum(ratios) / len(ratios)


def scaled(times: list[float], slow: list[float]) -> list[float]:
    """Each time at the nominal speed; slow[i] was measured just before times[i]."""
    half = WINDOW // 2
    return [t / statistics.median(slow[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]
