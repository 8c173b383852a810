"""Exception types shared across the package, and the one wall-clock budget."""

import time


class InputError(ValueError):
    """Malformed or out-of-contract user input (bad edge list, missing labels, ...)."""


class BudgetExceeded(RuntimeError):
    """A computation exceeded its configured wall-clock budget (OOR)."""


class CompatibilityError(InputError):
    """Model / rewiring / task combination ruled out by the compatibility matrix."""


class Budget:
    """Wall clock from construction. check() raises BudgetExceeded once
    `seconds` have passed: 0 at the first check, None or inf never."""

    def __init__(self, seconds: float | None = None):
        if seconds is not None and not seconds >= 0:   # NaN fails too
            raise InputError(f"budget must be >= 0 seconds, not {seconds}")
        self.start, self.seconds = time.monotonic(), seconds

    def check(self) -> None:
        if self.seconds is not None and self.elapsed >= self.seconds:
            raise BudgetExceeded(f"budget of {self.seconds}s exceeded")

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start
