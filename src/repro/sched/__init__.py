"""Reference schedulers and analytic bounds.

* :mod:`repro.sched.optimal` -- the omniscient bounds used in Fig 3:
  EDF + Moore-Hodgson tardy-minimization for deadline flows (Pinedo
  Alg 3.3.1), SJF/SRPT fluid completion times for mean FCT.
* :mod:`repro.sched.fluid` -- the Fig 1 motivating-example models: fluid
  fair sharing, serial SJF/EDF, and D3's arrival-order reservation.
"""

from repro.sched.fluid import (
    d3_fluid_schedule,
    fair_sharing_completions,
    serial_completions,
)
from repro.sched.optimal import (
    max_ontime_subset,
    optimal_application_throughput,
    sjf_completion_times,
    srpt_mean_fct,
)

__all__ = [
    "fair_sharing_completions",
    "serial_completions",
    "d3_fluid_schedule",
    "max_ontime_subset",
    "optimal_application_throughput",
    "sjf_completion_times",
    "srpt_mean_fct",
]
