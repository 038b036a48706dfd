"""Package-level error types.

Validation of user inputs raises plain :class:`ValueError`.  An
:class:`InvariantError` means the inputs were admissible but a numeric
identity the implementation guarantees failed to hold, e.g. a quadrature
cross-check or a non-finite coefficient; these indicate a genuine
problem rather than bad arguments.
"""

import numpy as np


class InvariantError(RuntimeError):
    """A guaranteed numeric identity or sanity bound failed; ``t`` is the
    time it failed at, where one is known."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


def _require_finite(*checks) -> None:
    """Raise :class:`InvariantError` naming the earliest non-finite value
    among the ``(quantity, times, values)`` checks, and its time."""
    bad = [
        (float(times[np.argmin(np.isfinite(values))]), quantity)
        for quantity, times, values in checks
        if not np.isfinite(values).all()
    ]
    if bad:
        t, quantity = min(bad)
        raise InvariantError(f"non-finite {quantity} at t = {t!r}", t)
