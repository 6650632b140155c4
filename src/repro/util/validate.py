"""Declarative range checks for configuration dataclasses."""

from __future__ import annotations


def check_ranges(obj: object, ranges: dict[str, str]) -> None:
    """Raise ``ValueError`` unless every named attribute is in its interval.

    Intervals use mathematical notation — ``"[1, inf)"``, ``"(0, 1]"`` —
    and the message names the field, so a config class states its
    per-field rules as one table instead of one ``if``/``raise`` each.
    """
    for name, interval in ranges.items():
        value = getattr(obj, name)
        low, high = (float(bound) for bound in interval[1:-1].split(","))
        if not ((low < value or (interval[0] == "[" and value == low))
                and (value < high or (interval[-1] == "]" and value == high))):
            raise ValueError(f"{name} must be in {interval}, got {value!r}")
