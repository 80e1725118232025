"""Kernel layer behind the localized push solver.

:mod:`repro.propagation.push` funnels its per-nonzero work through three
vectorized numpy/scipy kernels in :mod:`.reference` — ``full_residual``,
``seed_residual_rows`` and ``push_rounds``.  The dense propagator sweeps
do not go through this layer; they compose their scipy products directly.
"""

from __future__ import annotations

__all__ = ["active_backend"]


def active_backend() -> str:
    """Name of the kernel implementation (always ``"numpy"``).

    Kept so push stats, session decision stats and benchmark records carry
    a stable ``kernel_backend`` field.
    """
    return "numpy"
