"""Bounded actuators: enforcing the share-analysis upper bounds.

Flower's architecture (Sec. 2): "Once the upper bound resource shares
for each layer are identified, an adaptive controller at each of the
three layers automatically adjusts resource allocations of that layer."
The controllers are free within their layer's share — but never beyond
it, because the shares are what keep the whole flow inside the budget
(Eq. 4).

:class:`BoundedActuator` wraps any actuator with such a cap (and an
optional floor); the manager applies one around every layer's actuator
when the user supplies resource shares.
"""

from __future__ import annotations

from typing import Callable

from repro.control.base import Actuator
from repro.core.errors import ControlError


class BoundedActuator(Actuator):
    """Clamps another actuator's commands to ``[floor, cap]``.

    With a ``schedule`` (a time-windowed share, Sec. 2), each
    :meth:`apply` first sets ``cap`` to ``schedule(now)``, so a window's
    bound holds from the first control step at or after its start.
    """

    def __init__(
        self,
        inner: Actuator,
        cap: float,
        floor: float = 1.0,
        schedule: Callable[[int], float] | None = None,
    ) -> None:
        if cap < floor:
            raise ControlError(f"cap {cap} is below floor {floor}")
        self.inner = inner
        self.cap = float(cap)
        self.floor = float(floor)
        self.schedule = schedule
        self._clamped_requests = 0

    def get(self, now: int) -> float:
        return self.inner.get(now)

    def apply(self, target: float, now: int) -> float:
        if self.schedule is not None:
            self.cap = float(self.schedule(now))
        clamped = max(self.floor, min(self.cap, target))
        if clamped != target:
            self._clamped_requests += 1
            if self._bus is not None:
                self._bus.publish(
                    now,
                    self._bus_layer,
                    "share.clamp",
                    {"requested": target, "clamped": clamped,
                     "cap": self.cap, "floor": self.floor},
                )
        return self.inner.apply(clamped, now)

    def instrument(self, bus, layer: str) -> None:
        """Instrument both the bound and the wrapped actuator."""
        super().instrument(bus, layer)
        self.inner.instrument(bus, layer)

    @property
    def clamped_requests(self) -> int:
        """How often the budget bound overrode the controller."""
        return self._clamped_requests
