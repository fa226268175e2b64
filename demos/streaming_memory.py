"""The train-track property: memory does not grow with the computation.

Runs the lattice pipeline at increasing total pulse counts and shows that
the number of simultaneously live modes (the high-water mark) stays at
M + 2 no matter how long the stream runs.  The register is a finite-state
machine: once it repeats itself bit for bit one label on from one tick to
the next (the certified steady state, at tick 2M + 3), the rest of the
emissions run no Gaussian kernel, so each further pulse costs only the
construction of its measurement record.  Kernels run on 3M + 4 ticks in
all, the M + 1 flush ticks included, for any N.
"""

import time

from tcsim import PipelineConfig, run_pipeline

M = 4
print(f"lattice pipeline, width M={M}, squeezing r=1.0, compute mode\n")
print(f"{'pulses':>8}  {'live modes (max)':>17}  {'wall time':>10}")

for n in (100, 1_000, 10_000, 100_000):
    config = PipelineConfig("lattice", n, width=M, squeezing_r=1.0, seed=0)
    t0 = time.perf_counter()
    report = run_pipeline(config)
    dt = time.perf_counter() - t0
    print(f"{n:>8}  {report.high_water:>17}  {dt:>9.2f}s")

print(f"\nhigh water = M + 2 = {M + 2}: one pulse at the gate, one in flight")
print("to the detector, and M circulating in the loop -- independent of N.")
print(f"Past the certified tick (2M + 3 = {2 * M + 3} here) the wall time is")
print("record construction only: no covariance update runs for those pulses;")
print(f"kernels run on 3M + 4 = {3 * M + 4} ticks in all, flush included.")
