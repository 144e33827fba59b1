"""Exact reference for the open-loop (constant-field) runs.

The local-control Hamiltonians are built here from Pauli matrices, not through
bellsteer, and every interval on which the field is constant is propagated
exactly with ``scipy.linalg.expm``. States are pure, so concurrence and the
Lyapunov distance have closed forms:

    C(psi) = 2 |a d - b c|            (psi = (a, b, c, d) in |00>,|01>,|10>,|11>)
    V      = 1 - |<psi_d|psi>|^2      (= (1/2) Tr[(rho - rho_d)^2] for pure states)
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_00 = np.array([1, 0, 0, 0], dtype=complex)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)


def local_control_hamiltonians(J: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Drift 2J Z(x)Z and control eta*J*(X(x)I + I(x)X), in |00>,|01>,|10>,|11> order."""
    h0 = 2.0 * J * np.kron(_Z, _Z)
    h1 = eta * J * (np.kron(_X, _I) + np.kron(_I, _X))
    return h0, h1


def concurrence(psi: np.ndarray) -> np.ndarray:
    """Concurrence of pure states; ``psi`` has shape (..., 4)."""
    return 2.0 * np.abs(psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2])


def switched_states(
    J: float, eta: float, t0: float, times: np.ndarray, psi0: np.ndarray = KET_00
) -> np.ndarray:
    """States at ``times`` with the field on for t < t0 and off afterwards."""
    h0, h1 = local_control_hamiltonians(J, eta)
    times = np.asarray(times, dtype=float)
    t_on = np.minimum(times, t0)
    psi = expm(-1j * t_on[:, None, None] * (h0 + h1)) @ psi0
    t_off = np.maximum(times - t0, 0.0)
    return (expm(-1j * t_off[:, None, None] * h0) @ psi[:, :, None])[:, :, 0]


def drifting_target(J: float, times: np.ndarray, psi_d0: np.ndarray = PHI_PLUS) -> np.ndarray:
    """The target state, which evolves freely under the drift."""
    h0, _ = local_control_hamiltonians(J, 0.0)
    return expm(-1j * np.asarray(times, dtype=float)[:, None, None] * h0) @ psi_d0


def distance(psi: np.ndarray, psi_d: np.ndarray) -> np.ndarray:
    """Lyapunov distance V between pure states, row by row."""
    return 1.0 - np.abs(np.sum(psi_d.conj() * psi, axis=-1)) ** 2
