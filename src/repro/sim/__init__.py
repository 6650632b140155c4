"""A small discrete-event simulation (DES) kernel.

The performance evaluation of the paper ran on a 72-node testbed; this
kernel lets us model that testbed (namenode handler threads, NDB
transaction-coordinator threads, network round trips, the HDFS global lock)
in simulated time. It is a from-scratch, generator-based kernel in the
style of SimPy:

* processes are Python generators that ``yield`` events;
* :class:`Environment` keeps a time-ordered event heap and resumes
  processes when the events they wait on fire;
* :class:`AllOf` fires when every one of its events has;
* :class:`Resource` models a k-server FCFS station (thread pools, the
  HDFS namesystem lock as one server); a visit is one event.
"""

from repro.sim.core import AllOf, Environment, Event, Process, SimError
from repro.sim.resources import Resource

__all__ = ["AllOf", "Environment", "Event", "Process", "Resource", "SimError"]
