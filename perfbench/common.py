"""Shared helpers: the source tree, seeding, timing statistics, memory."""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The clock of in-process op and set-up times: this process's CPU time.
#: The in-process ops run on one thread and never wait, so on an idle
#: machine it reads what the wall clock reads.  On a shared virtual
#: machine it leaves out the time the hypervisor hands to other guests,
#: which can stretch a wall-clock op time several-fold.
op_clock = process_time


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no install step).

    Exits non-zero, before any result is printed, when the tree is absent.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a path of indices."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the sample with exactly ten larger
    samples, and its rank as a percentile of the sample count.
    """
    n = len(values)
    if n < 11:
        raise SystemExit(
            f"error: {n} ops completed; a tail percentile needs at least 11"
        )
    return float(sorted(values)[n - 11]), 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Machine speed.  A shared virtual machine changes speed for seconds to
# minutes at a time, CPU time included.  So the benchmark times a fixed
# calibration loop of its own before every op (every request block for
# service_mix) and scales each op's time by the nominal calibration time
# over the median of the calibrations around it; a set-up is scaled by
# calibrations made right after it.  Times then read as on a machine
# running at the nominal speed.  Over five seeds on a 2-vCPU guest, the
# quartile spread of the op-time metrics fell from 0.29-0.36 to 0.10-0.13
# on dag_search and from 0.26-0.27 to 0.03-0.06 on mc_certify.  The loop
# is the benchmark's code, so a change to the program cannot move it; a
# run's median scale is printed as ``machine_speed``.

#: CPU time of one :func:`calibrate` call on that guest at its faster speed
CALIBRATION_S = 0.0025
#: calibrations before and after an op that set its scale
WINDOW = 3


def calibrate(clock=op_clock) -> float:
    """Time a fixed loop of interpreter work and small numpy kernels."""
    import numpy as np

    t0 = clock()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    a = np.arange(2048, dtype=float)
    for _ in range(100):
        a = np.sqrt(a * 1.0001 + 1.0)
    return clock() - t0


def setup_scale() -> float:
    """The nominal scale for a set-up that has just finished."""
    return CALIBRATION_S / median([calibrate() for _ in range(2 * WINDOW + 1)])


def nominal_scales(calibrations: list[float]) -> list[float]:
    """Per op, with ``calibrations[i]`` timed just before op ``i``: the
    nominal calibration time over the median of the ``WINDOW``
    calibrations before the op and the ``WINDOW`` after it."""
    return [
        CALIBRATION_S / median(calibrations[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(calibrations))
    ]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return float(numerator) / denominator if denominator else 0.0


class Tally:
    """Op times and failures of the ops of one phase."""

    def __init__(self) -> None:
        self.times: list[float] = []
        #: the calibration timed just before each op in ``times``
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, execute, check):
        """Time ``execute()`` and verify its result with ``check``.

        An op that raises or fails its check counts as failed; returns
        the result of an op that passed, else ``None``.
        """
        self.attempted += 1
        calibration = calibrate()
        try:
            wall, result = execute()
            ok = check(result)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        self.times.append(wall)
        self.calibrations.append(calibration)
        if not ok:
            print(f"check failed: {label}", file=sys.stderr)
            self.failed += 1
            return None
        return result

    def extra(self, times: list[float]) -> dict[str, float]:
        """Workload-specific end-to-end figures, given the ops' ``times``."""
        return {}

    def layer_inputs(self) -> dict[str, float]:
        """Workload-specific inputs of :func:`tracing.layer_metrics`."""
        return {}
