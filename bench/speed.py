"""Machine-speed probes for the benchmark's timings.

On a shared VM the CPU's speed drifts by tens of percent, in spells that
last from a second to minutes: a fixed loop can take 40 % longer for a whole
run.  A median over one run's passes cannot remove a spell that covers the
run, so every timed operation is bracketed by probes of a fixed workload
that has nothing to do with the package, and its wall time is scaled by

    reference_s / (mean of the probe times just before and after it)

The result is the operation's time on a machine where the probe takes
reference_s, in seconds.  The two vCPUs drift apart, so the benchmark pins
itself and its children to one of them and the probes measure the vCPU the
work runs on.  The raw wall times are printed beside the scaled ones.

Two probes, one per kind of work:

- LOOP, a plain interpreter loop, for stages run in this process.  Over
  seven minutes of flat64-closure passes it tracked the stage times more
  closely than a numpy or an unmarshal probe did.
- SPAWN, bare interpreter start-ups (``python -S -I -c pass``), for stage
  processes and import spawns.  Process start-up (exec, page faults, module
  loading) drifts differently from a loop in a running process: scaled by
  LOOP, CLI pass times spread more than raw ones.
"""

import statistics
import subprocess
import sys
import time


def _loop():
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def _spawn():
    subprocess.run([sys.executable, "-S", "-I", "-c", "pass"], check=True)


class Probe:
    """A fixed workload whose median wall time stands for the machine's speed."""

    def __init__(self, kernel, reps, reference_s):
        self.kernel = kernel
        self.reps = reps
        # median probe time on the 2-vCPU VM the benchmark was tuned on
        # (Python 3.11.7) in its faster state; a fixed constant, so scaled
        # times of two runs or two commits compare directly
        self.reference_s = reference_s

    def __call__(self):
        """Median wall time of `reps` runs of the probe workload."""
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self, seconds, before, after):
        """Wall time `seconds` at the reference speed, from the probes around it."""
        return seconds * self.reference_s / (0.5 * (before + after))


LOOP = Probe(_loop, 5, 0.0035)
SPAWN = Probe(_spawn, 3, 0.016)
