"""Step budgets and the UNKNOWN outcome shared by all semi-decision procedures."""

from __future__ import annotations

from dataclasses import dataclass


class _Unknown:
    """Singleton returned when a budgeted search gave no definite answer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        return False


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Budget:
    """Maximum number of elementary oracle steps before returning UNKNOWN.

    What counts as a step is documented per operation (multiplication oracle
    calls, as the searches' cost model prices them, for searches,
    enumeration entries for the c.e. semi-decisions, matching steps for
    harem queries).
    """

    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("budget must allow at least one step")

    def meter(self) -> "Meter":
        return Meter(self.steps)


class Meter:
    """Mutable countdown of one run's budget, made once by ``Budget.meter``."""

    __slots__ = ("remaining", "limit")

    def __init__(self, steps: int):
        self.remaining = steps
        self.limit = steps

    def meter(self) -> "Meter":
        """Itself: passed wherever a budget goes, the run's one meter is shared."""
        return self

    def charge(self, amount: int = 1) -> bool:
        """Deduct ``amount`` steps; False once the budget is exhausted."""
        if self.remaining < amount:
            self.remaining = 0
            return False
        self.remaining -= amount
        return True

    @property
    def consumed(self) -> int:
        return self.limit - self.remaining
