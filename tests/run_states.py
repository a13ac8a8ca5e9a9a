"""The engine states a call creates, recorded as the benchmark counts them.

``Parser.run`` creates one ``ParserState`` for the run and, when the run
fails, ``run_phase`` creates one for the error pass. ``recorded_states``
replaces ``pegstack.engine.ParserState``, which both look up when they
run, with a subclass that records each instance; the states' counters are
then read after the call.
"""

from contextlib import contextmanager

from pegstack import engine

_BASE = engine.ParserState
_made: list = []


class _Recorded(_BASE):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        _BASE.__init__(self, *args, **kwargs)
        _made.append(self)


@contextmanager
def recorded_states():
    """Yield a list that receives every ParserState the engine creates
    until the block ends."""
    states: list = []
    _made[:] = []
    engine.ParserState = _Recorded
    try:
        yield states
    finally:
        engine.ParserState = _BASE
        states.extend(_made)
        _made.clear()
