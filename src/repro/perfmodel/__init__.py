"""Performance models reproducing the paper's evaluation (§7).

The paper's numbers come from a 72-node testbed; this package replays the
*functional* system's behaviour in simulated time:

* :mod:`repro.perfmodel.costs` — the calibration constants (hardware
  RTTs, thread counts, per-row database work), each documented against
  the paper's setup;
* :mod:`repro.perfmodel.profiles` — per-operation database access
  profiles **measured from the functional implementation** by running
  every operation against :mod:`repro.ndb` and recording its access
  events;
* :mod:`repro.perfmodel.hopsfs_model` / :mod:`repro.perfmodel.hdfs_model`
  — discrete-event queueing models of the two architectures (namenode
  handler pools, NDB thread pools, the HDFS global lock + quorum
  journal);
* specialised models for metadata capacity (Table 3), subtree-operation
  latency (Table 4) and block reports (§7.7). Failover (Figure 10) is
  the two DES models' ``kill_times``.

Absolute numbers are calibrated; the *shape* of every result (who wins,
scaling, saturation, crossovers) emerges from the queueing model plus the
measured profiles.
"""

from repro.perfmodel.costs import CostModel
from repro.perfmodel.profiles import OpProfile, TripSpec, record_hopsfs_profiles

__all__ = ["CostModel", "OpProfile", "TripSpec", "record_hopsfs_profiles"]
