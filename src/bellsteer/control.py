"""Control laws: Lyapunov state feedback, timed constant-field switching, and
free evolution.

The feedback law on state vectors psi and psi_d, with rho = psi psi† and
rho_d = psi_d psi_d†, is f = kappa * Im Tr(rho_d [H1, rho])
= 2 kappa Im(<psi_d|H1 psi> conj(<psi_d|psi>)) for a signed gain kappa
(`control_field`). Along the closed loop the distance
V = (1/2)Tr[(rho - rho_d)^2], 1 - |<psi_d|psi>|^2 for unit vectors, then
satisfies dV/dt = -f^2/kappa, nonpositive for kappa > 0; a negative kappa
flips the field and steers to the phase-flipped target. The tests check this
against a finite-difference derivative along the closed-loop flow, and |f|
against its Cauchy-Schwarz bound, with the helpers in `tests/oracles.py`.
The geometric law is an open-loop 0/1 multiplier on the control
Hamiltonian: on before t0, off afterward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import SECTORS


@dataclass(frozen=True)
class Lyapunov:
    """Signed feedback gain kappa, finite and nonzero; kappa < 0 flips the
    field (steers to the phase-flipped target)."""

    kappa: float

    def __post_init__(self) -> None:
        _check_gain(self.kappa)


def _check_gain(kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa != 0):
        raise ValueError(f"kappa must be finite and nonzero, got {kappa}")


@dataclass(frozen=True)
class Geometric:
    """Constant field on [0, t0), off for t >= t0."""

    t0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and self.t0 >= 0):
            raise ValueError(f"t0 must be nonnegative and finite, got {self.t0}")


# Free evolution is represented by literal None.
ControlLaw = Union[Lyapunov, Geometric, None]


def lyapunov_value(rho: np.ndarray, rho_d: np.ndarray) -> float | np.ndarray:
    """(1/2) Tr[(rho - rho_d)^2]; zero iff the states coincide, at most 1.

    Stacks of matrices (..., d, d) give one value per matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    rho_d = np.asarray(rho_d, dtype=complex)
    if rho.shape != rho_d.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {rho_d.shape}")
    d = rho - rho_d
    v = 0.5 * np.real(np.trace(d @ d, axis1=-2, axis2=-1))
    return float(v) if rho.ndim == 2 else v


def control_field(
    psi: np.ndarray, psi_d: np.ndarray, h1: np.ndarray, kappa: float
) -> float | np.ndarray:
    """The feedback field 2 kappa Im(<psi_d|H1 psi> conj(<psi_d|psi>)) of
    XProduct state vectors, for a finite nonzero kappa: one 4-vector each,
    or (n, 4) stacks with one value per row. h1 holds H1's (2, 2, 2)
    parity-sector blocks (`HamiltonianPair.h1`), and H1 psi is taken block
    by block on the rows `model.SECTORS`."""
    _check_gain(kappa)
    psi, psi_d = np.asarray(psi), np.asarray(psi_d)
    h1_psi = np.empty(psi.shape, complex)
    for s, rows in enumerate(SECTORS):
        h1_psi[..., rows] = psi[..., rows] @ h1[s].T
    overlap = (psi_d.conj() * psi).sum(axis=-1)
    f = 2 * kappa * ((psi_d.conj() * h1_psi).sum(axis=-1) * overlap.conj()).imag
    return f if f.ndim else float(f)


def geometric_field(t: float | np.ndarray, law: Geometric) -> float | np.ndarray:
    """0/1 multiplier for the switched control Hamiltonian (off at t = t0), one per time."""
    f = np.where(np.asarray(t) < law.t0, 1.0, 0.0)
    return f if f.ndim else float(f)
