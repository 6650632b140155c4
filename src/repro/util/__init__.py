"""Small shared utilities: clocks, the percentile helper, id generation."""

from repro.util.clock import Clock, ManualClock, SystemClock
from repro.util.stats import percentile

__all__ = [
    "Clock",
    "ManualClock",
    "SystemClock",
    "percentile",
]
