"""Dense complex matrix primitives for two-qubit state and operator algebra.

Everything operates on plain numpy arrays of complex128. Matrices are small
(2x2 or 4x4), so no attempt is made at sparse or batched storage. State
vectors are checked for unit norm where they enter; the dynamics layer
monitors the density-matrix invariants during integration, and the one thing
it re-enforces, the norm of the state vector it steps, it checks and reports.
There is no matrix exponential here: the tests' reference propagator
U rho U†, U = expm(-i H t), brings its own (`tests/oracles.py`).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix ('I', 'X', 'Y' or 'Z') in the Z eigenbasis."""
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {which!r}; expected one of I, X, Y, Z") from None


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result equals a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr(a† a))."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector v v† from a unit-norm state vector."""
    v = as_state_vector(v)
    return np.outer(v, v.conj())


def as_state_vector(v: np.ndarray) -> np.ndarray:
    """Validate and return a unit-norm complex state vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm {nrm!r} deviates from 1 beyond {NORM_TOL}")
    return v

