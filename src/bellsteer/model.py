"""Two-qubit Hamiltonians for a pair of distant atoms with an always-on
effective coupling and switchable local driving.

The drift/control split depends on the chosen paradigm:

* ``LocalControl``: drift ``h_eff = 2J Z(x)Z``, control ``h_local``.
* ``InteractionControl``: drift ``h_local`` (symmetric, k=1), control ``h_eff``.

Three coordinate systems span the two-qubit space, with fixed orderings:

* ZProduct: {|00>, |01>, |10>, |11>}
* XProduct: {|++>, |+->, |-+>, |-->}, |+-> = (|0>+|1>)(|0>-|1>)/2
* Bell:     {Psi+, Phi+, Phi-, Psi-} built on the X-product states,
  e.g. Phi+ = (|++> + |-->)/sqrt(2)

Both Hamiltonians of either paradigm commute with the parity X(x)X for every
J, eta and k, so S = span{|++>, |-->}, its +1 eigenspace, and the complement
span{|+->, |-+>} are invariant: every pair is block diagonal in the sector
coordinates ``SECTOR_ROWS`` (XProduct rows {|++>, |-->, |+->, |-+>}), and a
run's population of S is a constant of motion.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import HERMITICITY_TOL, dagger, hs_norm, kron, pauli

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants: coupling J (inverse time, hbar=1), local-field ratio
    eta (field strength B = eta*J), and local-coupling asymmetry k."""

    J: float
    eta: float
    k: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.J) and self.J > 0):
            raise ValueError(f"J must be positive and finite, got {self.J}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta}")
        if not math.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k}")
        # `hs_norm` sums squared entries, so the pair's norm is finite only while the
        # squared Frobenius norms are: 16 J² for 2J Z(x)Z, and 4 (eta J)² (1 + k²) for
        # the local field, at k and at the interaction drift's k = 1.
        b = self.eta * self.J
        if not math.isfinite(16 * self.J * self.J + 4 * b * b * (1 + max(self.k * self.k, 1.0))):
            raise ValueError(f"the Hamiltonian norm is not finite at J={self.J}, eta={self.eta}, "
                             f"k={self.k}")
        if self.eta >= 1:
            warnings.warn(
                f"eta={self.eta} is not small compared to 1; the weak-local-field "
                "regime the control analysis assumes no longer holds",
                stacklevel=2,
            )


class Paradigm(Enum):
    LOCAL_CONTROL = "LocalControl"
    INTERACTION_CONTROL = "InteractionControl"


class BellName(Enum):
    PSI_PLUS = "PsiPlus"
    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"
    PSI_MINUS = "PsiMinus"


@dataclass(frozen=True, eq=False)
class Basis:
    """A coordinate system: ``transform`` T is a 4x4 unitary from ZProduct
    coordinates.

    Vectors: v_here = T @ v_z. Operators: H_here = T @ H_z @ T†, and H_z = T† @ H_here @ T.
    """

    tag: str
    transform: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        u = self.transform
        err = hs_norm(u @ dagger(u) - np.eye(4)) if u.shape == (4, 4) else math.inf
        if err > 1e-12:
            raise ValueError(f"basis transform is not unitary (deviation {err:.3e})")

    def from_z(self, op_z: np.ndarray) -> np.ndarray:
        """Conjugate an operator given in ZProduct coordinates into this basis."""
        return self.transform @ op_z @ dagger(self.transform)

    def vector_from_z(self, v_z: np.ndarray) -> np.ndarray:
        return self.transform @ np.asarray(v_z, dtype=complex)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
Z_PRODUCT = Basis("ZProduct", np.eye(4, dtype=complex))
X_PRODUCT = Basis("XProduct", kron(_HADAMARD, _HADAMARD))

# Bell vectors in ZProduct coordinates, ordered {Psi+, Phi+, Phi-, Psi-}.
_BELL_COLUMNS_Z = np.column_stack(
    [
        np.array([1, 0, 0, -1], dtype=complex) / _SQ2,   # (|+-> + |-+>)/sqrt2
        np.array([1, 0, 0, 1], dtype=complex) / _SQ2,    # (|++> + |-->)/sqrt2
        np.array([0, 1, 1, 0], dtype=complex) / _SQ2,    # (|++> - |-->)/sqrt2
        np.array([0, -1, 1, 0], dtype=complex) / _SQ2,   # (|+-> - |-+>)/sqrt2
    ]
)
BELL = Basis("Bell", dagger(_BELL_COLUMNS_Z))

BASES = {b.tag: b for b in (Z_PRODUCT, X_PRODUCT, BELL)}

_BELL_INDEX = {
    BellName.PSI_PLUS: 0,
    BellName.PHI_PLUS: 1,
    BellName.PHI_MINUS: 2,
    BellName.PSI_MINUS: 3,
}


# 64 u (u = 2^-53): the Hermiticity defect a pair may carry, per unit of its
# norm ||H||_F, above the absolute HERMITICITY_TOL. `Basis.from_z` rounds T H T†
# by at most 16 u ||H||_F (gamma_4 ||A||_F ||B||_F per 4x4 product, ||T||_F = 2,
# ||T H||_F = ||H||_F), so H - H† by at most twice that. Seen: 0.49 u at J = 1e12.
_HERM_ROUNDING = 64 * 2.0**-53


@dataclass(frozen=True, eq=False)
class HamiltonianPair:
    """Drift h0 and control h1 expressed in ``basis``; optional construction
    metadata (params, paradigm) travels with the pair for downstream checks.
    Each must have a finite Frobenius norm and be Hermitian to roundoff:
    max(HERMITICITY_TOL, _HERM_ROUNDING ||h||_F)."""

    h0: np.ndarray = field(repr=False)
    h1: np.ndarray = field(repr=False)
    basis: Basis
    params: ModelParams | None = None
    paradigm: Paradigm | None = None

    def __post_init__(self) -> None:
        for name, h in (("h0", self.h0), ("h1", self.h1)):
            with np.errstate(over="ignore"):  # an overflowing norm is rejected just below
                norm = hs_norm(h)
            if not math.isfinite(norm):
                raise ValueError(f"{name} has no finite norm")
            err = hs_norm(h - dagger(h))
            if err > max(HERMITICITY_TOL, _HERM_ROUNDING * norm):
                raise ValueError(f"{name} is not Hermitian (deviation {err:.3e})")


def h_local(p: ModelParams) -> np.ndarray:
    """eta*J*(X(x)I + k*I(x)X) in ZProduct coordinates."""
    x, ident = pauli("X"), pauli("I")
    return p.eta * p.J * (kron(x, ident) + p.k * kron(ident, x))


def h_eff(p: ModelParams) -> np.ndarray:
    """2J * Z(x)Z in ZProduct coordinates."""
    z = pauli("Z")
    return 2.0 * p.J * kron(z, z)


def hamiltonians(p: ModelParams, paradigm: Paradigm, basis: Basis) -> HamiltonianPair:
    """Build the (drift, control) pair for a paradigm in the requested basis.

    The interaction paradigm drives with the coupling and drifts under the
    symmetric local field, so its drift is built with k=1 regardless of p.k.
    """
    if paradigm is Paradigm.LOCAL_CONTROL:
        h0_z, h1_z = h_eff(p), h_local(p)
    elif paradigm is Paradigm.INTERACTION_CONTROL:
        symmetric = ModelParams(p.J, p.eta, 1.0)
        h0_z, h1_z = h_local(symmetric), h_eff(p)
    else:
        raise ValueError(f"unknown paradigm {paradigm!r}")
    return HamiltonianPair(basis.from_z(h0_z), basis.from_z(h1_z), basis, p, paradigm)


def bell_state(which: BellName, basis: Basis) -> np.ndarray:
    """The named Bell state as a unit vector in the requested basis."""
    v_z = _BELL_COLUMNS_Z[:, _BELL_INDEX[which]]
    return basis.vector_from_z(v_z)


# The sector coordinates: the XProduct rows of S = span{|++>, |-->}, then those of
# its complement; and the projector P_S onto S.
SECTOR_ROWS = X_PRODUCT.transform[[0, 3, 1, 2]]
_P_S = dagger(SECTOR_ROWS[:2]) @ SECTOR_ROWS[:2]


@functools.lru_cache
def _s_terms(basis: Basis) -> tuple:
    """Tr(Q rho) = sum Q_ij rho_ji for Q = P_S in ``basis``, as terms (j, i, Q_ij), less
    the entries of Q below 1e-15, roundoff of a zero. A basis aligned with S keeps two,
    where a BLAS product over all sixteen woke its threads, at up to ms a stack."""
    q = basis.from_z(_P_S)
    return tuple((j, i, q[i, j]) for i, j in zip(*np.nonzero(abs(q) > 1e-15)))


def subspace_populations(rho: np.ndarray, basis: Basis) -> tuple:
    """Population (p_S, p_Sperp) of S = span{|++>, |-->} and its complement:
    p_S = Re Tr(Q rho) with Q = P_S written in ``basis``, for every basis.

    A stack of matrices (..., 4, 4) gives a pair of arrays, one entry per matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    p_s = functools.reduce(np.add, (q * rho[..., j, i] for j, i, q in _s_terms(basis))).real
    p_s = float(p_s) if rho.ndim == 2 else p_s
    return p_s, 1.0 - p_s
