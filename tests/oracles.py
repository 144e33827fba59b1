"""Reference computations the tests hold the package to.

No run of the package calls these; they check it:

- `geometric_evolve`, the constant-Hamiltonian propagator U rho U† with
  scipy's matrix exponential, independent of the eigendecomposition path
  of `dynamics.propagate_exact`;
- `vdot_identity_check`, the descent identity of the feedback law against
  a finite difference of V along the closed-loop flow;
- `f_bound`, the Cauchy-Schwarz bound on the feedback field;
- `csv_text_reference`, the trajectory CSV as '%'-formatted rows, against
  which `experiments.write_trajectory_csv`'s vectorised formatter is held
  byte for byte.

`vdot_identity_check` steps the package's own closed loop, so it reads the
private `dynamics._initial_states`, `_pure_state`, `_frame` and `rhs`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from bellsteer.control import Lyapunov, control_field, lyapunov_value
from bellsteer.dynamics import Trajectory, _frame, _initial_states, _pure_state, rhs
from bellsteer.experiments import CSV_HEADER
from bellsteer.linalg import hs_norm
from bellsteer.model import HamiltonianPair


def geometric_evolve(h_tot: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact constant-Hamiltonian propagation U rho0 U†, U = expm(-i h_tot t)."""
    u = expm(-1j * np.asarray(h_tot, dtype=complex) * t)
    return u @ np.asarray(rho0, dtype=complex) @ u.conj().T


def vdot_identity_check(
    rho: np.ndarray,
    rho_d: np.ndarray,
    h: HamiltonianPair,
    law: Lyapunov,
    delta: float = 1e-5,
) -> tuple[float, float]:
    """Return (analytic, numeric) values of dV/dt at the given closed-loop state.

    analytic = -f * Tr(rho_d [-iH1, rho]), the descent identity of the
    feedback design (equal to -kappa * trace^2 for sign=+1). numeric is a
    central finite difference of V along the closed-loop flow, each side
    advanced by one classical RK4 step of `rhs` of size delta. Both states
    must be pure, as for `integrate`. The two agree within
    max(1e-6, 1e-3 |analytic|) for valid inputs.
    """
    pair = _initial_states(h, rho, rho_d)
    frame, y = _frame(h, _pure_state(pair[0], "rho"), _pure_state(pair[1], "rho_d"))
    y = np.array(y)

    def deriv(t: float, psi: np.ndarray) -> np.ndarray:
        return np.array(rhs(frame, law, t, tuple(psi)))

    k1 = deriv(0.0, y)

    def rk4(step: float) -> np.ndarray:
        k2 = deriv(0.5 * step, y + 0.5 * step * k1)
        k3 = deriv(0.5 * step, y + 0.5 * step * k2)
        k4 = deriv(step, y + step * k3)
        psi = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.outer(psi, psi.conj())

    trace_term = control_field(pair[0], pair[1], h.h1, 1.0, 1)
    analytic = -law.sign * law.kappa * trace_term * trace_term
    # V is unchanged by the frame, so it is taken on psi~ against psi_d~.
    target = np.outer(np.conj(frame[3]), frame[3])
    numeric = (lyapunov_value(rk4(delta), target) - lyapunov_value(rk4(-delta), target)) / (
        2.0 * delta
    )
    return analytic, numeric


def f_bound(rho: np.ndarray, rho_d: np.ndarray, h1: np.ndarray, kappa: float) -> float:
    """kappa * ||i[rho, rho_d]|| * ||H1|| (Hilbert-Schmidt norms).

    Cauchy-Schwarz upper bound for |control_field|; equals 0 when the states
    commute.
    """
    comm = rho @ rho_d - rho_d @ rho
    return kappa * hs_norm(comm) * hs_norm(h1)


def csv_text_reference(traj: Trajectory) -> str:
    """The trajectory CSV, header and one line per sample, each float as
    '%.17g' % x, by %-formatting Python floats row by row."""
    columns = [getattr(traj, name).tolist() for name in CSV_HEADER.split(",")]
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [CSV_HEADER] + [row_format % row for row in zip(*columns)]
    return "\n".join(lines) + "\n"
