"""Reference schedulers and analytic bounds.

:mod:`repro.sched.optimal` holds the omniscient bounds used in Fig 3:
EDF + Moore-Hodgson tardy-minimization for deadline flows (Pinedo
Alg 3.3.1), SJF/SRPT fluid completion times for mean FCT.
"""
