"""Two-qubit Hamiltonians for a pair of distant atoms with an always-on
effective coupling and switchable local driving.

The drift/control split depends on the chosen paradigm:

* ``LocalControl``: drift ``2J Z(x)Z``, control ``eta*J*(X(x)I + k*I(x)X)``.
* ``InteractionControl``: drift the symmetric local field (k=1), control ``2J Z(x)Z``.

Three coordinate systems span the two-qubit space, with fixed orderings:

* ZProduct: {|00>, |01>, |10>, |11>}
* XProduct: {|++>, |+->, |-+>, |-->}, |+-> = (|0>+|1>)(|0>-|1>)/2
* Bell:     {Psi+, Phi+, Phi-, Psi-} built on the X-product states,
  e.g. Phi+ = (|++> + |-->)/sqrt(2)

Both Hamiltonians of either paradigm commute with the parity X(x)X for every
J, eta and k, so S = span{|++>, |-->}, its +1 eigenspace, and the complement
span{|+->, |-+>} are invariant, and a run's population of S is a constant of
motion. A `HamiltonianPair` therefore holds each operator as its two 2x2
sector blocks, on the XProduct rows ``SECTORS``: XProduct is the one
coordinate system of a run, and the other bases only name states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

HERMITICITY_TOL = 1e-12

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
        # The Frobenius norm sums squared entries, so the pair's norm is finite only while the
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

    Vectors: v_here = T @ v_z. Operators: H_here = T @ H_z @ T†.
    """

    tag: str
    transform: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        u = self.transform
        err = np.linalg.norm(u @ u.conj().T - np.eye(4)) if u.shape == (4, 4) else math.inf
        if not err <= 1e-12:
            raise ValueError(f"basis transform is not unitary (deviation {err:.3e})")

    def vector_from_z(self, v_z: np.ndarray) -> np.ndarray:
        return self.transform @ np.asarray(v_z, dtype=complex)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
Z_PRODUCT = Basis("ZProduct", np.eye(4, dtype=complex))
X_PRODUCT = Basis("XProduct", np.kron(_HADAMARD, _HADAMARD))

# Bell vectors in ZProduct coordinates, in BellName's order {Psi+, Phi+, Phi-, Psi-}.
_BELL_COLUMNS_Z = np.column_stack(
    [
        np.array([1, 0, 0, -1], dtype=complex) / _SQ2,   # (|+-> + |-+>)/sqrt2
        np.array([1, 0, 0, 1], dtype=complex) / _SQ2,    # (|++> + |-->)/sqrt2
        np.array([0, 1, 1, 0], dtype=complex) / _SQ2,    # (|++> - |-->)/sqrt2
        np.array([0, -1, 1, 0], dtype=complex) / _SQ2,   # (|+-> - |-+>)/sqrt2
    ]
)
BELL = Basis("Bell", _BELL_COLUMNS_Z.conj().T)

BASES = {b.tag: b for b in (Z_PRODUCT, X_PRODUCT, BELL)}

# Pauli X and Z, in the Z eigenbasis.
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# The parity sectors as XProduct rows: S = span{|++>, |-->}, then its complement.
SECTORS = ((0, 3), (1, 2))


@dataclass(frozen=True, eq=False)
class HamiltonianPair:
    """Drift h0 and control h1 as (2, 2, 2) arrays of sector blocks: h[s] is
    the operator on sector s, on the XProduct rows SECTORS[s], and nothing
    couples the sectors, so both commute with X(x)X. Each must have a
    finite Frobenius norm and be Hermitian to HERMITICITY_TOL."""

    h0: np.ndarray = field(repr=False)
    h1: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name, h in (("h0", self.h0), ("h1", self.h1)):
            if np.shape(h) != (2, 2, 2):
                raise ValueError(f"{name} must be two 2x2 sector blocks, shape (2, 2, 2), "
                                 f"got {np.shape(h)}")
            with np.errstate(over="ignore"):  # an overflowing norm is rejected just below
                norm = np.linalg.norm(h)
            if not math.isfinite(norm):
                raise ValueError(f"{name} has no finite norm")
            err = np.linalg.norm(h - np.conj(h).swapaxes(1, 2))
            if err > HERMITICITY_TOL:
                raise ValueError(f"{name} is not Hermitian (deviation {err:.3e})")


def hamiltonians(p: ModelParams, paradigm: Paradigm) -> HamiltonianPair:
    """Build the (drift, control) pair of a paradigm as sector blocks.

    In XProduct coordinates X(x)I is diag(1, 1, -1, -1), I(x)X is
    diag(1, -1, 1, -1), and Z(x)Z swaps |++> with |--> and |+-> with |-+>.
    So on (S, its complement), with B = eta J:

    * LocalControl: H0 = 2J Z(x)Z is 2J sigma_x on both sectors, and
      H1 = B (X(x)I + k I(x)X) is B (1 + k) sigma_z on S and B (1 - k) sigma_z
      on the complement;
    * InteractionControl: H0, the local field at k = 1, is 2B sigma_z on S and
      0 on the complement, and H1 = 2J Z(x)Z is 2J sigma_x on both.

    The interaction paradigm drives with the coupling and drifts under the
    symmetric local field, so its drift takes k = 1 regardless of p.k.
    """
    coupling = np.stack([2.0 * p.J * _X, 2.0 * p.J * _X])
    b = p.eta * p.J
    if paradigm is Paradigm.LOCAL_CONTROL:
        h0, h1 = coupling, np.stack([b * (1 + p.k) * _Z, b * (1 - p.k) * _Z])
    elif paradigm is Paradigm.INTERACTION_CONTROL:
        h0, h1 = np.stack([2.0 * b * _Z, np.zeros_like(_Z)]), coupling
    else:
        raise ValueError(f"unknown paradigm {paradigm!r}")
    return HamiltonianPair(h0, h1)


def bell_state(which: BellName, basis: Basis) -> np.ndarray:
    """The named Bell state as a unit vector in the requested basis."""
    v_z = _BELL_COLUMNS_Z[:, list(BellName).index(which)]
    return basis.vector_from_z(v_z)


def subspace_populations(rho: np.ndarray) -> tuple:
    """Population (p_S, p_Sperp) of S = span{|++>, |-->} and its complement
    in an XProduct density matrix: p_S = Re(rho_ii + rho_jj), (i, j) = SECTORS[0].

    A stack of matrices (..., 4, 4) gives a pair of arrays, one entry per matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    i, j = SECTORS[0]
    p_s = (rho[..., i, i] + rho[..., j, j]).real
    p_s = float(p_s) if rho.ndim == 2 else p_s
    return p_s, 1.0 - p_s
