"""Machine-speed calibration for a shared, noisy host.

On the reference machine (2 vCPUs on a shared host) the same op takes up to
1.7x longer for stretches of seconds to minutes, with no steal time and
nothing else running in the container. Ops and a fixed kernel that does not
touch ccflab slow down together, so each op is timed between two runs of that
kernel and scaled by the kernel's reference time over their mean: the
reported times are seconds at the reference machine's speed. The raw times
are kept beside them.

The kernel mixes the kinds of work ccflab ops do: an interpreter loop, many
small FFTs, and fresh 16 MB arrays streamed through memory. It runs in a
helper process, so its memory never shows in the measured process's peak.

    python3 perfbench/speed.py    # helper: one kernel run per line read
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Typical kernel time on the reference machine (Intel Xeon, 2 vCPUs, 2.0 GHz).
REFERENCE_S = 0.07
HELPER_TIMEOUT_S = 30


def kernel_seconds(small: np.ndarray, large: np.ndarray) -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(500):
        np.fft.ifft(np.fft.fft(small) * small)
    for _ in range(2):
        np.sqrt(large * large + 1.0)
    return time.perf_counter() - start


def scale(seconds: float, kernels: list[float]) -> float:
    """A raw time scaled to reference speed by the kernel times taken around it."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)


class Calibrator:
    """Runs the kernel in a helper process on request; use as a context manager."""

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def kernel(self) -> float:
        """Time one kernel run in the helper, while this process waits."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    small = np.random.default_rng(0).standard_normal(1024)
    large = np.random.default_rng(1).standard_normal(1 << 21)
    for _ in sys.stdin:
        print(repr(kernel_seconds(small, large)), flush=True)


if __name__ == "__main__":
    _serve()
