"""Hermite polynomials and normalized oscillator eigenfunctions.

Raw physicists' Hermite values grow like (2x)^n and overflow quickly, so
the normalized eigenfunction is built with a recurrence on the already
normalized functions instead of dividing huge numbers: the normalization
never materializes as a factorial.  Supported degree is n <= 200.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import Oscillator, scales

__all__ = ["hermite", "oscillator_ladder", "oscillator_psi", "MAX_OSCILLATOR_N"]

MAX_OSCILLATOR_N = 200


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by forward recurrence.

    H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}.  Raises
    OverflowError if an intermediate leaves double-precision range.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    hk = np.ones_like(x)
    if n == 0:
        return hk if hk.ndim else float(hk)
    hk1 = 2.0 * x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            hk, hk1 = hk1, 2.0 * x * hk1 - 2.0 * k * hk
    if not np.all(np.isfinite(hk1)):
        raise OverflowError(f"H_{n} overflows double precision on this argument")
    return hk1 if hk1.ndim else float(hk1)


def oscillator_ladder(x, n_max: int):
    """Yield the natural-unit eigenfunctions phi_0, ..., phi_{n_max} on `x`.

    `x` is in units of the oscillator length sqrt(hbar / m w).  One pass of
    the normalized recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1}, so all
    levels up to n_max cost O(n_max) array steps.  Each yielded array is a
    fresh object.
    """
    if n_max < 0:
        raise DomainError(f"quantum number must be >= 0, got {n_max}")
    if n_max > MAX_OSCILLATOR_N:
        raise OverflowError(f"oscillator_psi supports n <= {MAX_OSCILLATOR_N}, got {n_max}")
    xi = np.asarray(x, dtype=float)
    phi = (1.0 / np.pi) ** 0.25 * np.exp(-0.5 * xi**2)
    yield phi
    prev = np.zeros_like(phi)
    for k in range(n_max):
        phi, prev = (
            np.sqrt(2.0 / (k + 1)) * xi * phi - np.sqrt(k / (k + 1.0)) * prev,
            phi,
        )
        yield phi


def oscillator_psi(spec: Oscillator, n: int, x):
    """Normalized harmonic-oscillator eigenfunction psi_n(x).

    Equals (m w / pi hbar)^{1/4} (2^n n!)^{-1/2} H_n(xi) e^{-xi^2/2} with
    xi = x / length: the last value of `oscillator_ladder(xi, n)`, divided
    by sqrt(length).
    """
    length = scales(spec).length
    for phi in oscillator_ladder(np.asarray(x, dtype=float) / length, n):
        pass
    phi = phi / np.sqrt(length)
    return phi if phi.ndim else float(phi)
