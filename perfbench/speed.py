"""Machine-speed probe: wall-clock seconds at a fixed reference speed.

The hosts this benchmark runs on share cores with other tenants, and
their speed moves by up to 2x from one second to the next (a fixed
30 ms loop measured 27-49 ms per one-second window over 30 s on a
2-core host).  Medians over passes cannot remove that: five 15-s runs
of the same ``kms-csa`` work read 3.1-5.0 s.

So every pass process measures its own speed with :func:`probe_work`, a
fixed pure-Python loop of about a millisecond.  A region's wall clock
minus the probe time inside it, scaled by ``NOMINAL_PROBE_S / mean
probe time``, is its duration at the speed where the probe takes
exactly :data:`NOMINAL_PROBE_S`.  Raw seconds are reported beside the
normalized ones.

Two ways to take the mean:

* :class:`SpeedSampler` -- an interval timer interrupts the main thread
  every :data:`INTERVAL_S` to run one probe, for single-threaded passes
  whose only load is the measured work itself.  On the host above this
  took the spread of repeated ``kms(csa4.1)`` timings from 26% to 6%;
  the probes cost about 2% of the pass.
* :class:`TwoCoreCalibrator` -- bursts of probes run back to back while
  the program is idle, in this process and a helper process at once,
  for the ``serve`` loop.  There the program's two worker processes
  load both cores, so probes taken during the loop would slow down
  with the program and cancel part of its changes; and a single-process
  burst sees only one core's speed.  Over 14 serve passes on a 2-core
  host, the two-process bursts correlated 0.75 with the raw pass time
  (single-process bursts: 0.46) and cut its spread from 18% to 11%.

Run as a script, this file is that helper: one burst per input line.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

INTERVAL_S = 0.05
NOMINAL_PROBE_S = 1.0e-3
#: Fewest probes a region's speed is taken from (about half a second).
MIN_PROBES = 10
#: Probes in one :func:`burst` (about 0.1 s).
CALIBRATION_PROBES = 100


def probe_work() -> int:
    """The fixed probe: dict and integer work, cache resident."""
    table = {}
    acc = 0
    for i in range(4000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc ^= key
    return acc


class SpeedSampler:
    """Interval-timer speed samples of the current process."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _probe(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe_work()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def region(self, since: Tuple[int, float],
               until: Optional[Tuple[int, float]] = None):
        """(probe seconds spent, mean probe seconds or None) between two
        marks (``until`` defaults to now)."""
        count, spent = until if until is not None else self.mark()
        return spent - since[1], self.mean(since[0], count)

    def mean(self, first: int, last: int) -> Optional[float]:
        """Mean probe seconds of samples ``first`` to ``last - 1``."""
        window = self.samples[first:last]
        return sum(window) / len(window) if window else None


def burst() -> Tuple[float, float]:
    """Run :data:`CALIBRATION_PROBES` probes back to back: (seconds
    spent, mean probe seconds)."""
    times = []
    for _ in range(CALIBRATION_PROBES):
        start = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - start)
    return sum(times), sum(times) / len(times)


class TwoCoreCalibrator:
    """Simultaneous bursts in this process and in a helper process."""

    def __init__(self) -> None:
        self.helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.helper.stdout.readline()  # started

    def burst(self) -> Tuple[float, float]:
        """(seconds this process spent, mean probe seconds of both)."""
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        spent, mean = burst()
        return spent, (mean + float(self.helper.stdout.readline())) / 2

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()


def normalize(raw_s: float, probe_spent_s: float,
              probe_mean_s: Optional[float]) -> float:
    """Raw wall seconds of a region as seconds at the nominal speed."""
    if not probe_mean_s:
        return raw_s - probe_spent_s
    return (raw_s - probe_spent_s) * NOMINAL_PROBE_S / probe_mean_s


if __name__ == "__main__":
    print(flush=True)
    for _line in sys.stdin:
        print(burst()[1], flush=True)
