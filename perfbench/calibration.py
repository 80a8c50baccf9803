"""The calibration kernel: fixed exact-rational work whose time tracks the CPU
speed the process gets (see `run.Clock`).

A module of its own that imports nothing but the standard library's gc, time
and fractions, so that an import probe can calibrate itself before it imports
divcert without having loaded anything divcert would load.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: Time of one `calibration_kernel` pass on a 2-core x86-64 box with CPython
#: 3.11 at its faster speed; reference seconds are wall seconds scaled by this
#: over the kernel's time measured beside the work.
REFERENCE_KERNEL_S = 0.0006


def calibration_kernel() -> Fraction:
    """Fixed exact-rational work of the kind divcert does: small Fractions
    added, multiplied, compared and sorted."""
    acc = Fraction(0)
    xs = []
    for i in range(1, 70):
        x = Fraction(i % 17 - 8, i % 12 + 1)
        acc += x * Fraction(1, 48)
        xs.append(x)
        if i % 48 == 0:
            acc = Fraction(acc.numerator % 97, acc.denominator % 96 + 1)
    xs.sort()
    return acc + xs[len(xs) // 2]


def calibrate() -> float:
    """Wall seconds of one calibration pass, with the collector off so that
    the program's heap does not show in it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    calibration_kernel()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed
