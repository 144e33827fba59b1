"""Control laws: Lyapunov state feedback, timed constant-field switching, and
free evolution.

The feedback law is f = kappa * Im Tr(rho_d [H1, rho]) = kappa * Tr(rho_d [-iH1, rho])
for a signed gain kappa. Along the closed loop the distance
V = (1/2)Tr[(rho - rho_d)^2] then satisfies
dV/dt = -f * Tr(rho_d [-iH1, rho]) = -f^2/kappa, nonpositive for kappa > 0; a
negative kappa flips the field and steers to the phase-flipped target. The tests
check this against a finite-difference derivative along the closed-loop flow, and
|f| against its Cauchy-Schwarz bound |kappa| ||i[rho, rho_d]|| ||H1||, with the
helpers in `tests/oracles.py`.
The geometric law is an open-loop 0/1 multiplier on the control
Hamiltonian: on before t0, off afterward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_REALNESS_TOL = 1e-10
# 128 u (u = 2^-53): the real part Tr(rho_d [H1, rho]) may carry per unit of
# ||H1||_F, above the absolute _REALNESS_TOL. For states with ||rho||_F <= 1 each
# of the two traces rounds by at most (gamma_4 + gamma_16) ||H1||_F (the row
# products with H1, then the 16-term sum), about 40 u with the difference; states
# Hermitian to 32 u ||rho||_F add at most 2 * 32 u ||H1||_F. Seen: 0.24 u at J = 1e12.
_REALNESS_ROUNDING = 128 * 2.0**-53


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
    rho: np.ndarray,
    rho_d: np.ndarray,
    h1: np.ndarray,
    kappa: float,
) -> float | np.ndarray:
    """kappa * Tr(rho_d * (-i)[H1, rho]), for a finite nonzero kappa.

    The trace is mathematically real for Hermitian arguments; a residual real
    part of Tr(rho_d [H1, rho]) beyond roundoff indicates a construction bug
    and raises rather than being silently discarded. Stacks of matrices
    (..., d, d) give one value per matrix. Tr(rho_d [H1, rho]) is taken as
    Tr(rho_d H1 rho) - Tr(rho H1 rho_d): each stack times H1 is one product
    of its rows with H1, and each trace of a product one row-wise sum.
    """
    _check_gain(kappa)
    rho, rho_d = np.asarray(rho), np.asarray(rho_d)
    d = rho.shape[-1]
    rho_h1, rho_d_h1 = ((m.reshape(-1, d) @ h1).reshape(m.shape) for m in (rho, rho_d))
    trace = "...ij,...ji->..."  # Tr(a b) of each pair of matrices
    tr = np.einsum(trace, rho_d_h1, rho) - np.einsum(trace, rho_h1, rho_d)
    f = feedback_from_trace(tr, kappa, h1_norm=np.linalg.norm(h1))
    return f if isinstance(f, np.ndarray) else float(f)


def feedback_from_trace(
    tr: complex | np.ndarray, kappa: float, *, h1_norm: float
) -> float | np.ndarray:
    """kappa * Im tr for tr = Tr(rho_d [H1, rho]), or an array of such
    traces, after checking that every real part is roundoff: at most
    max(_REALNESS_TOL, _REALNESS_ROUNDING * h1_norm), h1_norm = ||H1||_F."""
    re = tr.real
    if isinstance(re, np.ndarray):
        re = re.flat[np.argmax(np.abs(re))]
    if abs(re) > max(_REALNESS_TOL, _REALNESS_ROUNDING * h1_norm):
        raise ValueError(
            f"control trace has non-imaginary commutator part {re:.3e}; "
            "inputs are not consistently Hermitian"
        )
    return kappa * tr.imag


def geometric_field(t: float | np.ndarray, law: Geometric) -> float | np.ndarray:
    """0/1 multiplier for the switched control Hamiltonian (off at t = t0), one per time."""
    f = np.where(np.asarray(t) < law.t0, 1.0, 0.0)
    return f if f.ndim else float(f)
