"""Reference kernels that track the speed of a shared host while a workload
runs.

On a shared 2-core host the speed available to one process drifts by tens
of percent within minutes (a fixed pure-Python loop ran between 47 and 79
iterations per second within two minutes), so raw timings of the same code
differ run to run. After every round the runner runs a fixed kernel that
uses no bicaption code, and rescales the run's times to the kernel's
nominal rate: a run timed while the host runs the kernel 20% slower than
nominal is counted 20% shorter.

The kernel must slow down as the workload does, so there is one of each
kind:

- `matvec`, for the workloads bound by large matrices: one 1024x1280
  float64 matvec (10 MiB of weights), the traffic of their dominant kernels.
- `toy`, for the toy-shape workloads bound by Python and numpy call
  overhead: an 8-step, 16-wide LSTM unroll with a 20-way log-softmax, made
  of small numpy calls inside small Python functions, as those workloads'
  forward passes are. The host slows such code more than it slows a matvec
  (up to 1.7x against 1.2x in one minute), so the matvec kernel cannot
  stand in for it. It is slowed more than the workloads too, so their
  times are rescaled by the square root of its slowdown.
"""

import time

import numpy as np

clock = time.perf_counter

UNITS_PER_CHECK = 10


class Reference:
    """A kernel `unit`, the units per second it ran at on the host the
    benchmark was calibrated on (Intel Xeon at 2.1 GHz, 2 cores, 1 BLAS
    thread), and `sensitivity`: the workloads slow down by the kernel's
    slowdown to this power. The nominal rate fixes the scale of normalised
    times only."""

    def __init__(self, unit, nominal_rate: float, sensitivity: float):
        self._unit = unit
        self._nominal_rate = nominal_rate
        self._sensitivity = sensitivity

    def speed(self, seconds: float) -> float:
        """Host speed for the workloads relative to nominal, measured by
        running the kernel for at least `seconds`."""
        unit = self._unit
        n = 0
        t0 = clock()
        while True:
            for _ in range(UNITS_PER_CHECK):
                unit()
            n += UNITS_PER_CHECK
            elapsed = clock() - t0
            if elapsed >= seconds:
                return (n / elapsed / self._nominal_rate) ** self._sensitivity


def matvec() -> Reference:
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.1, 0.1, size=(1024, 1280))
    x = rng.random(1280)
    return Reference(lambda: w @ x, 2_000.0, 1.0)


def toy() -> Reference:
    width, vocab = 16, 20
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.1, 0.1, size=(4 * width, 2 * width))
    b = np.zeros(4 * width)
    w_out = rng.uniform(-0.1, 0.1, size=(vocab, width))
    xs = list(rng.random((8, width)))

    def gate(v):
        z = np.exp(-np.abs(v))
        return np.where(v >= 0.0, 1.0, z) / (1.0 + z)

    def step(x, h, c):
        a = w @ np.concatenate([x, h]) + b
        gates = gate(a[:3 * width])
        c = gates[width:2 * width] * c + gates[:width] * np.tanh(a[3 * width:])
        return gates[2 * width:] * np.tanh(c), c

    def unit():
        h = c = np.zeros(width)
        total = 0.0
        for x in xs:
            h, c = step(x, h, c)
            z = w_out @ h
            m = z.max()
            total += float(z[0] - (m + np.log(np.exp(z - m).sum())))
        return total

    # the toy workloads slow by about the square root of this kernel's
    # slowdown: regressing their log round time on the log of readings
    # beside them gave slopes of 0.43-0.85; over twenty seeds of each, the
    # widest quartile spread of their timings was 14% of the median with
    # power 0.5, against 23% with 1 and 16% with 0 (raw)
    return Reference(unit, 4_500.0, 0.5)


REFERENCES = {"matvec": matvec, "toy": toy}
