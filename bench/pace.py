"""How fast the CPU runs right now, sampled while a round runs.

On a shared host the CPU a round runs on slows by a third or more, for
seconds to minutes, while other tenants load its physical core; a round's
wall time then says as much about the neighbours as about the program.
``Pacer`` runs a fixed Python loop (``probe``) at the start of a round,
every ``INTERVAL_S`` while it runs (from a thread, which takes the GIL from
the round for about a millisecond) and at its end. Each probe's thread CPU
time, against ``NOMINAL_S``, gives the CPU's speed at that moment: the CPU
time of a loop rises with the load on the physical core, and thread CPU
time does not count the probe thread's own waits for the CPU.

``ReferenceClock`` turns the samples into seconds on a CPU that runs at
nominal speed: each stretch between two probes counts with the mean speed
the two measured, and the time a probe held the GIL does not count at all.
The probe loop does not touch molmine, so a slower program still reads
slower.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right

INTERVAL_S = 0.05
# thread CPU seconds of the probe loop, fastest of three, on an unloaded core
# of the reference host (Intel Xeon at 2.1 GHz, Python 3.11)
NOMINAL_S = 0.00025

Sample = tuple[float, float, float]  # wall start, wall end, probe seconds


def _loop() -> int:
    buckets: dict[int, list[int]] = {}
    for i in range(1200):
        buckets.setdefault(i * 7919 % 1013, []).append(i)
    return len(buckets)


def probe() -> float:
    """Thread CPU seconds of the fixed loop, fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.thread_time()
        _loop()
        best = min(best, time.thread_time() - start)
    return best


class Pacer:
    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.perf_counter()
        cost = probe()
        self.samples.append((start, time.perf_counter(), cost))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def start(self) -> float:
        """Sample once and start the sampling thread; returns the round's start."""
        self._sample()
        self._thread.start()
        return time.perf_counter()

    def stop(self) -> float:
        """Stop the thread and sample once more; returns the round's end."""
        end = time.perf_counter()
        self._stop.set()
        self._thread.join()
        self._sample()
        return end


class ReferenceClock:
    """Reference seconds elapsed at a wall time, from a round's samples."""

    def __init__(self, samples: list[Sample]) -> None:
        samples = sorted(samples)
        self._walls = [samples[0][1]]
        self._refs = [0.0]
        for (_, prev_end, prev_cost), (start, end, cost) in zip(samples, samples[1:]):
            speed = (NOMINAL_S / prev_cost + NOMINAL_S / cost) / 2
            ref = self._refs[-1] + (start - prev_end) * speed
            self._walls += [start, end]
            self._refs += [ref, ref]  # a probe holds the GIL: the round does not advance

    def at(self, wall: float) -> float:
        i = bisect_right(self._walls, wall) - 1
        if i < 0 or i + 1 == len(self._walls):
            return self._refs[max(i, 0)]
        w0, w1 = self._walls[i], self._walls[i + 1]
        r0, r1 = self._refs[i], self._refs[i + 1]
        return r0 + (r1 - r0) * (wall - w0) / (w1 - w0) if w1 > w0 else r0

    def seconds(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)
