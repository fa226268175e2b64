"""The train-track property: memory does not grow with the computation.

Runs the lattice pipeline at increasing total pulse counts and shows that
the number of simultaneously live modes (the high-water mark) stays at
M + 2 no matter how long the stream runs.  The register is a finite-state
machine: once it repeats itself bit for bit one label on from one tick to
the next (the certified steady state, at tick 2M + 2), the rest of the
emissions run no Gaussian kernel, and the run keeps them as one captured
measurement plus one outcome per pulse.  Kernels run on 3M + 3 ticks in
all, the M + 1 flush ticks included, for any N.  The peak traced memory of
``run_pipeline`` (tracemalloc, which also slows the run a little) grows by
that one float64 per pulse.
"""

import time
import tracemalloc

from tcsim import PipelineConfig, run_pipeline

M = 4
print(f"lattice pipeline, width M={M}, squeezing r=1.0\n")
print(f"{'pulses':>9}  {'live modes (max)':>17}  {'peak traced':>12}  {'wall time':>10}")

run_pipeline(PipelineConfig("lattice", 2 * M, width=M))  # one-time set-up, untimed
for n in (100, 1_000, 10_000, 100_000, 1_000_000):
    config = PipelineConfig("lattice", n, width=M, squeezing_r=1.0, seed=0)
    tracemalloc.start()
    t0 = time.perf_counter()
    report = run_pipeline(config)
    dt = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{n:>9}  {report.high_water:>17}  {peak / 1e6:>9.2f} MB  {dt:>9.2f}s")

print(f"\nhigh water = M + 2 = {M + 2}: one pulse at the gate, one in flight")
print("to the detector, and M circulating in the loop -- independent of N.")
print(f"Past the certified tick (2M + 2 = {2 * M + 2} here) no covariance update")
print("runs: the stretch is one captured measurement and one outcome (8 bytes)")
print(f"per pulse; kernels run on 3M + 3 = {3 * M + 3} ticks in all, flush included.")
