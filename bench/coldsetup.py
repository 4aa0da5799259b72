"""Time one cold set-up of a workload in this fresh process.

    python3 bench/coldsetup.py WORKLOAD

Prints the seconds taken to import the library and build the workload's
inputs, with every cache empty, as a user's new process would pay them:
raw, then in reference seconds (see speed.py).
"""

import sys
from time import perf_counter

start = perf_counter()
import speed  # noqa: E402  (imports numpy, which the library needs anyway)

with speed.SpeedSampler() as sampler:
    from run import use_checkout_sources

    use_checkout_sources()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build()
    end = perf_counter()
print(*sampler.converter()(start, end))
