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
  byte for byte;
- `dense_samples_reference`, the samples of a `dynamics._dp5` step table,
  one at a time in scalar Python arithmetic, against which the numpy
  pass `dynamics._dense_samples` is held bit for bit;
- `psi_rhs`, the derivative of psi~ on one parity sector in Python complex
  arithmetic, against which `dynamics.rhs`'s Bloch form is held.

`vdot_identity_check` steps the package's own closed loop, so it reads the
private `dynamics._initial_states`, `_pure_state`, `_frame` and `rhs`.
"""

from __future__ import annotations

import math
from cmath import exp

import numpy as np
from scipy.linalg import expm

from bellsteer.control import Lyapunov, control_field, lyapunov_value
from bellsteer.dynamics import _DENSE, Trajectory, _frame, _initial_states, _pure_state, rhs
from bellsteer.experiments import CSV_HEADER
from bellsteer.linalg import hs_norm
from bellsteer.model import HamiltonianPair

# sigma_x, sigma_y, sigma_z.
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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
    advanced by one classical RK4 step of `rhs` of size delta on the state
    `integrate` steps: psi~, with rho~ = psi~ psi~†, or on one parity sector
    its Bloch vector r~, with rho~ = (|r~| I + r~.sigma)/2, which is
    psi~ psi~† for |r~| = ||psi~||². Both states must be pure, as for
    `integrate`. The two agree within max(1e-6, 1e-3 |analytic|) for valid
    inputs.
    """
    pair = _initial_states(h, rho, rho_d)
    frame, y = _frame(h, _pure_state(pair[0], "rho"), _pure_state(pair[1], "rho_d"))
    y = np.array(y)

    def deriv(t: float, state: np.ndarray) -> np.ndarray:
        return np.array(rhs(frame, law, t, tuple(state.tolist())))

    k1 = deriv(0.0, y)

    def rk4(step: float) -> np.ndarray:
        k2 = deriv(0.5 * step, y + 0.5 * step * k1)
        k3 = deriv(0.5 * step, y + 0.5 * step * k2)
        k4 = deriv(step, y + step * k3)
        state = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if len(state) == 3:
            return 0.5 * (np.linalg.norm(state) * np.eye(2) + np.tensordot(state, PAULI, 1))
        return np.outer(state, state.conj())

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


def dense_samples_reference(
    spans: list, table: list, grid: np.ndarray, norm0: float
) -> list[tuple]:
    """The samples of the stepped state that a `dynamics._dp5` step table
    passes, from grid[1] on, one at a time, in scalar Python arithmetic:
    spans holds each row's (t, h, n), table its (y, k1, k3-k7), laid end to
    end, with y the 3 floats of a Bloch vector or 2 or 4 complex
    amplitudes, and a row covers the samples from the previous row's n (1
    for the first) up to its own. Within a step of size h from t the sample
    at time s, at theta = (s - t)/h, is the step's continuous extension
    y + x_1 k1 + x_3 k3 + ... + x_7 k7, summed left to right with the
    weights of `dynamics._DENSE` (x_1 = h theta (1 + theta p_1(theta)),
    x_i = h theta² p_i(theta) for the others), scaled by sqrt(norm0/N) for
    its squared norm N = |o_0|² + |o_1|² + ... or, for a Bloch vector, by
    norm0/sqrt(o_0² + o_1² + o_2²)."""
    times = grid.tolist()
    rows = len(spans) // 3
    width = len(table) // rows // 7
    out, n = [], 1
    for r in range(rows):
        t, h, end = spans[3 * r:3 * r + 3]
        entries = table[7 * width * r:7 * width * (r + 1)]
        y, stages = entries[:width], [entries[width * i:width * (i + 1)] for i in range(1, 7)]
        while n < end:
            th = (times[n] - t) / h
            q = h * th * th
            weights = [h * th * (1.0 + th * (d2 + th * (d3 + th * d4))) if i == 0
                       else q * (d2 + th * (d3 + th * d4))
                       for i, (_, d2, d3, d4) in enumerate(_DENSE)]
            o = list(y)
            for x, k in zip(weights, stages):
                o = [oj + x * kj for oj, kj in zip(o, k)]
            if width == 3:
                c = norm0 / math.sqrt(o[0] * o[0] + o[1] * o[1] + o[2] * o[2])
            else:
                sq = abs(o[0]) * abs(o[0])
                for oj in o[1:]:
                    sq = sq + abs(oj) * abs(oj)
                c = math.sqrt(norm0 / sq)
            out.append(tuple(c * oj for oj in o))
            n += 1
    return out


def psi_rhs(frame: tuple, law: Lyapunov, t: float, y: tuple) -> tuple:
    """The derivative of psi~ = (y0, y1) on the one parity sector of a
    `dynamics._frame`, in Python complex arithmetic from the frame's psi~
    coefficients: -i f E h E* psi~ with E h E* = [[h00, h01 r], [h10 / r, h11]],
    r = exp(i (lam_0 - lam_1) t), and f = 2 sign kappa Im(a conj(b)),
    a = <psi_d~|E h E* psi~>, b = <psi_d~|psi~>."""
    rate, h00, h01, h10, h11, g0, g1 = frame[2]
    e = exp(rate * t)
    y0, y1 = y
    v0 = h00 * y0 + h01 * e * y1
    v1 = h10 / e * y0 + h11 * y1
    a = g0 * v0 + g1 * v1
    b = g0 * y0 + g1 * y1
    m = -2j * law.sign * law.kappa * (a * b.conjugate()).imag
    return m * v0, m * v1
