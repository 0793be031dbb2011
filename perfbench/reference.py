"""Machine-speed reference for the benchmark: a fixed kernel that runs no microloc code.

    python3 perfbench/reference.py    # one pass per line read from stdin; prints its seconds

The speed of a shared host drifts by 15-25% over minutes, and most kinds of
work drift together.  run.py divides each timed sample by the time of
reference passes run right after it, so that the drift cancels, and
multiplies by ``REF_S`` to give seconds again.  A pass mixes numpy FFTs, a
Python loop, elementwise ufuncs on arrays larger than the cache, and a BLAS
product.  Small 2-worker ``scipy.fft`` calls are left out: their time swung
far more than any workload's.  The passes run in a helper process of their
own, so that their 50 MB of temporaries stay out of the run's ``peak_rss_mb``.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Median time of one pass on the machine the benchmark was built on
# (2 vCPU, numpy 2.4.6); run.py reports times scaled to it.
REF_S = 0.26


def one_pass():
    import numpy as np

    x = np.exp(0.001j * np.arange(1 << 16))
    big = np.linspace(0.0, 1.0, 1 << 21)
    m = np.linspace(0.0, 1.0, 400 * 400).reshape(400, 400)
    t0 = time.perf_counter()
    for _ in range(12):
        x = np.fft.ifft(np.fft.fft(x))
    acc = 0
    for i in range(1_200_000):
        acc += i
    for _ in range(2):
        np.sin(big) * big + big
    for _ in range(30):
        m @ m
    return time.perf_counter() - t0


class Reference:
    """The helper process, as a context manager; calling it times one pass."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended (exit {self.proc.poll()})")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(one_pass()), flush=True)
