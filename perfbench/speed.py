"""Samples the speed of the CPU it shares with a benchmark operation.

    python3 perfbench/speed.py

On a shared host the same code can run at half speed for seconds at a time,
because other tenants load the core under this CPU.  The benchmark pins
itself, its children and this sampler to one CPU.  The sampler then times
one fixed chunk of interpreter work every ``PERIOD_S`` in its own thread CPU
time, so the samples land throughout the operation running beside it.  It
prints ``ready`` once it runs, and when its stdin closes (or gets a line) it
prints the trimmed mean of its chunk rates, in chunks per CPU second, and
the number of samples, then exits.

``factor()`` turns that rate into the factor that scales a time measured
beside it to reference seconds: ``(rate / REFERENCE_RATE) ** ELASTICITY``.
The chunk slows more than fltaudit does when its core is loaded: over 30
operations of ``audit-session`` and ``search-cube`` alternating on a 2-vCPU
Xeon KVM guest, log operation time fell by 0.63 to 0.81 (fit per workload and
sample set) per unit of log chunk rate, with correlation 0.97 to 0.99.
``ELASTICITY`` is that slope, rounded; with it the spread of single
operations' times fell from 0.17-0.26 to about 0.045 of their median.
"""

from __future__ import annotations

import select
import statistics
import sys
from time import thread_time

PERIOD_S = 0.02
TRIM = 0.1
# Chunks per CPU second that define a reference second.  Beside a running
# operation, a 2-vCPU Xeon KVM guest ran the chunk at 2000 to 3500 per
# second, by the load other tenants put on its core.
REFERENCE_RATE = 3000.0
ELASTICITY = 0.75


def chunk() -> int:
    """A fixed mix of integer arithmetic, dict updates and small allocations."""
    table: dict[int, int] = {}
    total = 0
    for i in range(800):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i * i
        total += len(str(i)) + (i & 7)
    return total + len(table)


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut] if cut else values)


def main() -> int:
    rates = []
    print("ready", flush=True)
    while True:
        started = thread_time()
        chunk()
        elapsed = thread_time() - started
        if elapsed > 0:
            rates.append(1.0 / elapsed)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(f"{trimmed_mean(rates)!r} {len(rates)}", flush=True)
    return 0


def factor(rate: float) -> float:
    return (rate / REFERENCE_RATE) ** ELASTICITY


if __name__ == "__main__":
    sys.exit(main())
