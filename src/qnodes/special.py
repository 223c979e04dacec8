"""Normalized harmonic-oscillator eigenfunctions.

psi_n carries the physicists' Hermite polynomial H_n, whose raw values grow
like (2x)^n and overflow quickly.  So no H_n is ever formed: the ladder
recurrence runs on the already normalized functions, and the normalization
never materializes as a factorial.  Supported degree is n <= 200.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import Oscillator, scales

__all__ = ["oscillator_ladder", "oscillator_stacks", "oscillator_psi", "MAX_OSCILLATOR_N"]

MAX_OSCILLATOR_N = 200


def oscillator_ladder(x, n_max: int):
    """Iterate the natural-unit eigenfunctions phi_0, ..., phi_{n_max} on `x`.

    `x` is in units of the oscillator length sqrt(hbar / m w).  One pass of
    the normalized recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1}, so all
    levels up to n_max cost O(n_max) array steps.  Each yielded array is a
    fresh object.  `n_max` is checked here, before any level is built.
    """
    if n_max < 0:
        raise DomainError(f"quantum number must be >= 0, got {n_max}")
    if n_max > MAX_OSCILLATOR_N:
        raise OverflowError(f"oscillator_psi supports n <= {MAX_OSCILLATOR_N}, got {n_max}")
    return _ladder(np.asarray(x, dtype=float), n_max)


def _ladder(xi: np.ndarray, n_max: int):
    phi = (1.0 / np.pi) ** 0.25 * np.exp(-0.5 * xi**2)
    yield phi
    prev = np.zeros_like(phi)
    for k in range(n_max):
        phi, prev = (
            np.sqrt(2.0 / (k + 1)) * xi * phi - np.sqrt(k / (k + 1.0)) * prev,
            phi,
        )
        yield phi


def oscillator_stacks(x, stacks):
    """Iterate one (len(levels), x.size) array per list of levels in
    `stacks`, from one pass of `oscillator_ladder` up to the last level:
    the ladder writes level levels[i] into row i.  The levels ascend and
    are distinct across all lists; the level range is checked here,
    before any level is built.
    """
    x = np.asarray(x, dtype=float)
    ladder = enumerate(oscillator_ladder(x, stacks[-1][-1]))
    return (_fill(ladder, levels, x.size) for levels in stacks)


def _fill(ladder, levels, points: int) -> np.ndarray:
    out = np.empty((len(levels), points))
    for row, level in enumerate(levels):
        for n, phi in ladder:
            if n == level:
                out[row] = phi
                break
    return out


def oscillator_psi(spec: Oscillator, n: int, x):
    """Normalized harmonic-oscillator eigenfunction psi_n(x).

    Equals (m w / pi hbar)^{1/4} (2^n n!)^{-1/2} H_n(xi) e^{-xi^2/2} with
    xi = x / length: the one row of `oscillator_stacks(xi, [[n]])`, divided
    by sqrt(length).
    """
    length = scales(spec).length
    xi = np.asarray(x, dtype=float) / length
    phi = next(oscillator_stacks(xi.ravel(), [[n]]))[0].reshape(xi.shape) / np.sqrt(length)
    return phi if phi.ndim else float(phi)
