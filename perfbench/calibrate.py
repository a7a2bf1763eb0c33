"""A fixed piece of pure-Python work, timed next to every timed operation,
that measures how fast the host runs Python at that moment.

The benchmark's host is shared: its speed drifts by tens of percent over
minutes, and does so for any interpreted work alike.  Dividing a time by
the calibration's time per round measured around it and multiplying by
``REFERENCE_S`` gives the time the work would have taken at the reference
speed, which stays put while the raw time drifts.  The work does not call
layerlens, so a change to the program cannot move it; it resembles the
program's own inner loops (tuple arithmetic, a bitmask recursion, dict
updates).
"""

from __future__ import annotations

import time

# Seconds one round of the work took on the host where the benchmark's
# bounds were set (a 2-core x86-64 VM, CPython 3.11); only a scale.
REFERENCE_S = 0.002
MIN_ROUNDS = 25  # about 0.05 s: one sample that stands out of timer noise
SHARE = 0.1  # calibration time per second of timed work

_EDGES = tuple(((i * 37) % 61, (i * 53) % 59) for i in range(120))


def _crosses(e, f) -> bool:
    return (e[0] - f[0]) * (e[1] - f[1]) < 0


def _independent_sets(pos: int, chosen: int, masks: list[int]) -> int:
    if pos == len(masks):
        return 1
    total = _independent_sets(pos + 1, chosen, masks)
    if not masks[pos] & chosen:
        total += _independent_sets(pos + 1, chosen | (1 << pos), masks)
    return total


def _work() -> int:
    crossings = 0
    for a, e in enumerate(_EDGES):
        for f in _EDGES[a + 1 :]:
            if _crosses(e, f):
                crossings += 1
    masks = [0] * 18
    for a in range(18):
        for b in range(18):
            if a != b and _crosses(_EDGES[a], _EDGES[b]):
                masks[a] |= 1 << b
    table: dict = {}
    for e in _EDGES:
        table[e] = table.get(e, 0) + 1
    return crossings + _independent_sets(0, 0, masks) + len(table)


def rounds_for(seconds: float) -> int:
    """Rounds to run after ``seconds`` of timed work, so that the host's
    speed is sampled in proportion to the time the work took."""
    return max(MIN_ROUNDS, round(SHARE * seconds / REFERENCE_S))


def calibrate(rounds: int = MIN_ROUNDS) -> tuple[int, float]:
    """Run ``rounds`` rounds of the fixed work; returns the rounds and the
    seconds they took."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        _work()
    return rounds, time.perf_counter() - t0


def at_reference_speed(seconds: float, samples: list[tuple[int, float]]) -> float:
    """``seconds`` measured while the calibration ran ``samples``, scaled
    to the reference speed."""
    rounds = sum(r for r, _ in samples)
    took = sum(t for _, t in samples)
    return seconds * REFERENCE_S * rounds / took
