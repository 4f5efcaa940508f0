"""Parametric decreasing decay laws used as target envelopes for set attraction.

Three families are supported, each strictly decreasing to 0 on its domain:

    exponential      C * exp(-beta * (t - shift))        domain t > shift (any t)
    polynomial       C * (t - shift)**(-beta)            domain t > shift
    log_polynomial   C * log(t - shift)**(-beta)         domain t - shift > 1

``shift`` defaults to 0 and moves the time origin; it is how a law calibrated
on one clock is replayed against a delayed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import _positive

__all__ = ["DecayLaw", "DECAY_KINDS", "within_bound"]

DECAY_KINDS = ("exponential", "polynomial", "log_polynomial")


def within_bound(measured, bound):
    """``measured <= bound`` up to a relative round-off of 1e-12, elementwise:
    the one rule by which every check counts a value as under its bound."""
    return measured <= bound * (1 + 1e-12)


@dataclass(frozen=True)
class DecayLaw:
    kind: str
    amplitude: float
    rate: float
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in DECAY_KINDS:
            raise ValueError(f"unknown decay kind {self.kind!r}, expected one of {DECAY_KINDS}")
        for name in ("amplitude", "rate", "shift"):
            _positive(getattr(self, name), name, "decay law", zero=name == "shift")

    def eval(self, t: float) -> float:
        s = t - self.shift
        if self.kind == "exponential":
            return self.amplitude * math.exp(-self.rate * s)
        if self.kind == "polynomial":
            if s <= 0:
                raise ValueError(f"polynomial law needs t > {self.shift}, got t = {t}")
            return self.amplitude * s ** (-self.rate)
        if s <= 1:
            raise ValueError(f"log_polynomial law needs t > {self.shift + 1}, got t = {t}")
        return self.amplitude * math.log(s) ** (-self.rate)

