"""Fixture: a cached runner that reads the clock through an instance.

``run`` is registered in the neighbouring ``registry.py``.  Its only
path to the wall-clock read is ``_CLOCK.now()``, a method call on a
module-level instance, so REPRO101 sees it only if the call graph
resolves ``NAME.method()`` through the class of ``NAME``.
"""

import time


class Clock:
    def now(self):
        return time.time()


_CLOCK = Clock()


def _stamp(values):
    return [value - _CLOCK.now() for value in values]


def run(params=None):
    return _stamp([1.0, 2.0, 3.0])
