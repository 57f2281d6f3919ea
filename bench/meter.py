"""Operation timing that stays steady on a host whose speed drifts.

The benchmark runs on a few virtual CPUs of a shared machine.  Their speed
switches between states about 1.3x to 1.6x apart, for seconds to minutes
at a time, and nothing inside the VM shows when (CPU time slows with wall
time).  Raw pass times of the same input set then spread by a third from
run to run.

So every timed operation of a pass goes through a `Meter`.  It runs a fixed
reference probe at the start of the pass, one per PROBE_EVERY_S of
operation time (after the operation, so a long operation is followed by
several), and at the end.  The probe is pure numpy and Python, with no
`latres` code, so a change to the package cannot move it.  The pass's
operation times are scaled by REF_PROBE_S over the median of its probes.
The result is the time the operations would take at the host speed at which
the probe takes REF_PROBE_S: steadier across host states, and still
proportional to the package's own cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's median time on the machine recorded in bench/README.md
REF_PROBE_S = 1.6e-3
# operation time between probes; the probes add about 5% to a run
PROBE_EVERY_S = 0.03

_rng = np.random.default_rng(20110101)
_A = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_B = _rng.standard_normal(8)
_X = _rng.standard_normal(4000) + 1j * _rng.standard_normal(4000)


def reference_probe():
    """A fixed mix of interpreter, small dense linear algebra and array work,
    the three kinds of work the package does.  Returns its wall seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i % 7
    for _ in range(15):
        np.linalg.solve(_A, _B)
        np.linalg.svd(_A[:4, :4], compute_uv=False)
    y = _X
    for _ in range(15):
        y = 0.5 * (np.roll(_X, 1) + np.roll(_X, -1)) - 0.3 * _X + 0.1j * y
    return time.perf_counter() - t0


def probe_median(repeats):
    """Median seconds of `repeats` reference probes run back to back."""
    return statistics.median(reference_probe() for _ in range(repeats))


class Meter:
    """Times the operations of one pass, with reference probes between."""

    def __init__(self):
        self.ops = []                       # wall seconds per operation
        self.probes = [reference_probe()]
        self._since_probe = 0.0

    def __call__(self, fn, *args, **kwargs):
        """Run one operation, timed, then its share of probes."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.ops.append(dt)
        self._since_probe += dt
        if self._since_probe >= PROBE_EVERY_S:
            self._probe(int(self._since_probe / PROBE_EVERY_S))
        return out

    def _probe(self, repeats=1):
        self.probes.extend(reference_probe() for _ in range(repeats))
        self._since_probe = 0.0

    def finish(self):
        """Probe once more; call once after the pass's last operation."""
        self._probe()
        return self

    def scaled(self):
        """Each operation's seconds at the reference speed, in order."""
        factor = REF_PROBE_S / statistics.median(self.probes)
        return [dt * factor for dt in self.ops]

    @property
    def wall(self):
        """Raw wall seconds of the pass's operations, probes excluded."""
        return sum(self.ops)
