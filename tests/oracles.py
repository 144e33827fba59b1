"""Reference computations the tests hold the package to.

No run of the package calls these; they check it:

- `geometric_evolve`, the constant-Hamiltonian propagator U rho U† with
  scipy's matrix exponential, independent of the eigendecomposition path
  of `dynamics.propagate_exact`;
- `vdot_identity_check`, the descent identity of the feedback law against
  a finite difference of V along the closed-loop flow;
- `commutator_field`, the feedback field kappa Im Tr(rho_d [H1, rho]) in
  its density-matrix form, against which `control.control_field` on state
  vectors is held, and `f_bound`, its Cauchy-Schwarz bound;
- `csv_text_reference`, the trajectory CSV as '%'-formatted rows, against
  which `experiments.write_trajectory_csv`'s vectorised formatter is held
  byte for byte;
- `dense_samples_reference`, the samples of a `dynamics._dp5` step table,
  one at a time in scalar Python arithmetic, against which the numpy
  pass `dynamics._dense_samples` is held bit for bit;
- `psi_rhs`, the derivative of psi~ on one parity sector in Python complex
  arithmetic, from coefficients it builds itself (`psi_coefficients`),
  against which `dynamics.rhs`'s Bloch form is held;
- `vec_frame`, `vec_rhs` and `dop853_run`, a stepped reference propagator
  on the density matrix with scipy's DOP853, which takes the arguments of
  `dynamics.integrate` and `dynamics.propagate_exact`, so that one test
  class can run the same cases through each;
- `state_vector`, the unit vector of a pure density matrix, for the
  oracles that take vectors, and `outer`, the projector v v† of a vector;
- `h_local` and `h_eff`, the model's Hamiltonians as Kronecker products in
  ZProduct coordinates, and `model_matrices`, the pair of a paradigm built
  from them as 4x4 XProduct matrices, against whose sector rows
  `model.hamiltonians`' blocks are held, and from which the tests take
  their reference 4x4 matrices (`pair_matrices`).

`vdot_identity_check` steps the package's own closed loop, so it reads the
private `dynamics._state_vectors`, `_frame` and `rhs`, and `dop853_run` ends
in the package's sample pass `dynamics._diagnose` and takes its inputs
through the package's boundary check `dynamics._state_vectors`.
"""

from __future__ import annotations

import dataclasses
import math
from cmath import exp

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from bellsteer import dynamics
from bellsteer.control import (
    ControlLaw,
    Geometric,
    Lyapunov,
    control_field,
    lyapunov_value,
)
from bellsteer.dynamics import (
    _DENSE,
    IntegratorConfig,
    Trajectory,
    _frame,
    _state_vectors,
    rhs,
)
from bellsteer.experiments import CSV_HEADER
from bellsteer.model import SECTORS, X_PRODUCT, Basis, HamiltonianPair, ModelParams, Paradigm

# sigma_x, sigma_y, sigma_z.
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# 128 u (u = 2^-53) per unit of ||H1||_F, above an absolute 1e-10: the bound on the
# real part of `vec_rhs`'s trace Tr(rho_d [H1, rho]), which is imaginary for Hermitian
# states. For states with ||rho||_F <= 1 the trace is two rounded 16-term sums (vec rho~
# times gen, then the vdot with vec rho_d~) over terms bounded by ||gen||_F <= 4 ||H1||_F,
# so it rounds by at most 2 gamma_16 * 4 ||H1||_F, about 128 u ||H1||_F, and in practice
# by far less. Seen: 1.4 u over the DOP853 runs of tests/test_dynamics.py.
_REALNESS_ROUNDING = 128 * 2.0**-53


def outer(v: np.ndarray) -> np.ndarray:
    """The projector v v† of a state vector v."""
    return np.outer(v, v.conj())


def h_local(p: ModelParams) -> np.ndarray:
    """eta*J*(X(x)I + k*I(x)X) in ZProduct coordinates."""
    x, ident = PAULI[0], np.eye(2)
    return p.eta * p.J * (np.kron(x, ident) + p.k * np.kron(ident, x))


def h_eff(p: ModelParams) -> np.ndarray:
    """2J * Z(x)Z in ZProduct coordinates."""
    z = PAULI[2]
    return 2.0 * p.J * np.kron(z, z)


def from_z(basis: Basis, op_z: np.ndarray) -> np.ndarray:
    """An operator given in ZProduct coordinates, in ``basis``: T op_z T†."""
    return basis.transform @ op_z @ basis.transform.conj().T


def model_matrices(p: ModelParams, paradigm: Paradigm) -> tuple[np.ndarray, np.ndarray]:
    """The (drift, control) pair of a paradigm as 4x4 XProduct matrices, from
    the Kronecker forms: local control drifts under h_eff and drives with
    h_local; interaction control drifts under h_local at k = 1 and drives
    with h_eff."""
    if paradigm is Paradigm.LOCAL_CONTROL:
        pair = h_eff(p), h_local(p)
    else:
        pair = h_local(ModelParams(p.J, p.eta, 1.0)), h_eff(p)
    return tuple(from_z(X_PRODUCT, h) for h in pair)


def sector_blocks(m: np.ndarray) -> np.ndarray:
    """The (2, 2, 2) blocks of a 4x4 XProduct matrix on the rows and
    columns SECTORS[s]: the part of it that commutes with X(x)X."""
    return np.stack([m[np.ix_(rows, rows)] for rows in SECTORS])


def embed(blocks: np.ndarray) -> np.ndarray:
    """The 4x4 XProduct matrix of (2, 2, 2) sector blocks, zero between the sectors."""
    m = np.zeros((4, 4), dtype=complex)
    for rows, block in zip(SECTORS, blocks):
        m[np.ix_(rows, rows)] = block
    return m


def pair_matrices(h: HamiltonianPair) -> tuple[np.ndarray, np.ndarray]:
    """(H0, H1) of a pair as 4x4 XProduct matrices: a model pair's (params
    and paradigm set) from the Kronecker forms (`model_matrices`), any other
    pair's by placing its blocks (`embed`)."""
    if h.params is None:
        return embed(h.h0), embed(h.h1)
    return model_matrices(h.params, h.paradigm)


def geometric_evolve(h_tot: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact constant-Hamiltonian propagation U rho0 U†, U = expm(-i h_tot t)."""
    u = expm(-1j * np.asarray(h_tot, dtype=complex) * t)
    return u @ np.asarray(rho0, dtype=complex) @ u.conj().T


def vdot_identity_check(
    psi: np.ndarray,
    psi_d: np.ndarray,
    h: HamiltonianPair,
    law: Lyapunov,
    delta: float = 1e-5,
) -> tuple[float, float]:
    """Return (analytic, numeric) values of dV/dt at the closed-loop state
    psi against the target psi_d, unit 4-vectors as `integrate` takes them.

    analytic = -f * Tr(rho_d [-iH1, rho]), the descent identity of the
    feedback design (equal to -kappa * trace^2). numeric is a
    central finite difference of V along the closed-loop flow, each side
    advanced by one classical RK4 step of `rhs` of size delta on the state
    `integrate` steps: psi~, with rho~ = psi~ psi~†, or on one parity sector
    its Bloch vector r~, with rho~ = (|r~| I + r~.sigma)/2, which is
    psi~ psi~† for |r~| = ||psi~||². The two agree within
    max(1e-6, 1e-3 |analytic|) for valid inputs.
    """
    psi, psi_d = _state_vectors(psi, psi_d)
    (_, _, coeffs, target), y = _frame(h, law.kappa, psi, psi_d)
    y = np.array(y)

    def deriv(t: float, state: np.ndarray) -> np.ndarray:
        return np.array(rhs(coeffs, t, *state.tolist()))

    k1 = deriv(0.0, y)

    def rk4(step: float) -> np.ndarray:
        k2 = deriv(0.5 * step, y + 0.5 * step * k1)
        k3 = deriv(0.5 * step, y + 0.5 * step * k2)
        k4 = deriv(step, y + step * k3)
        state = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if len(state) == 3:
            return 0.5 * (np.linalg.norm(state) * np.eye(2) + np.tensordot(state, PAULI, 1))
        return np.outer(state, state.conj())

    trace_term = control_field(psi, psi_d, h.h1, 1.0)
    analytic = -law.kappa * trace_term * trace_term
    # V is unchanged by the frame, so it is taken on psi~ against psi_d~.
    target = np.outer(np.conj(target), target)
    numeric = (lyapunov_value(rk4(delta), target) - lyapunov_value(rk4(-delta), target)) / (
        2.0 * delta
    )
    return analytic, numeric


def commutator_field(
    rho: np.ndarray, rho_d: np.ndarray, h1: np.ndarray, kappa: float
) -> float | np.ndarray:
    """kappa * Im Tr(rho_d [H1, rho]) for a d x d matrix H1, of one state and
    target or of each pair of matrices in (n, d, d) stacks."""
    comm = h1 @ rho - rho @ h1
    return kappa * np.trace(rho_d @ comm, axis1=-2, axis2=-1).imag


def f_bound(rho: np.ndarray, rho_d: np.ndarray, h1: np.ndarray, kappa: float) -> float:
    """|kappa| * ||i[rho, rho_d]|| * ||H1|| (Hilbert-Schmidt norms).

    Cauchy-Schwarz upper bound for |commutator_field|, and so for
    |control_field| of pure states; equals 0 when the states commute.
    """
    comm = rho @ rho_d - rho_d @ rho
    return abs(kappa) * np.linalg.norm(comm) * np.linalg.norm(h1)


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


def psi_coefficients(h: HamiltonianPair, frame: tuple) -> tuple:
    """The coefficients of the psi~ derivative on the one parity sector s
    of a `dynamics._frame`, as Python complex numbers: the relative rate
    i (lam_0 - lam_1), the 2x2 block V_s† h1_s V_s of H1 in the eigenvectors
    V_s of H0's block, row by row, and conj(psi_d~). lam and W are the
    pair's eigendecomposition by `dynamics._sector_eigh`; the block is taken
    from the pair's blocks h.h1 as `_frame` takes it for its Bloch
    coefficients, in one stacked product over both sectors, so h01 is the
    same to the last bit. Only the stepped columns and conj(psi_d~) come
    from the frame."""
    _, cols, _, target = frame
    (lam,), (w,), _ = dynamics._sector_eigh(h)
    s = int(cols[0]) // 2
    v = np.stack([w[np.ix_(rows, (2 * k, 2 * k + 1))] for k, rows in enumerate(SECTORS)])
    block = (v.conj().swapaxes(1, 2) @ h.h1 @ v)[s]
    return (1j * float(lam[2 * s] - lam[2 * s + 1]), *block.ravel().tolist(), *target)


def psi_rhs(h: HamiltonianPair, frame: tuple, law: Lyapunov, t: float, y: tuple) -> tuple:
    """The derivative of psi~ = (y0, y1) on the one parity sector of a
    `dynamics._frame` of the pair h, in Python complex arithmetic from
    `psi_coefficients`: -i f E h E* psi~ with
    E h E* = [[h00, h01 r], [h10 / r, h11]], r = exp(i (lam_0 - lam_1) t),
    and f = 2 kappa Im(a conj(b)), a = <psi_d~|E h E* psi~>,
    b = <psi_d~|psi~>."""
    rate, h00, h01, h10, h11, g0, g1 = psi_coefficients(h, frame)
    e = exp(rate * t)
    y0, y1 = y
    v0 = h00 * y0 + h01 * e * y1
    v1 = h10 / e * y0 + h11 * y1
    a = g0 * v0 + g1 * v1
    b = g0 * y0 + g1 * y1
    m = -2j * law.kappa * (a * b.conjugate()).imag
    return m * v0, m * v1


def state_vector(rho: np.ndarray) -> np.ndarray:
    """The unit eigenvector of a pure density matrix rho at its largest
    eigenvalue: psi with rho = psi psi†, up to a global phase."""
    return np.linalg.eigh(rho)[1][:, -1]


def vec_frame(h: HamiltonianPair, states: np.ndarray) -> tuple:
    """The reference stepper's frame: vec rho~ at t = 0 for the (2, d, d)
    state/target stack, rho~ = W† U0(t)† rho U0(t) W in the eigenbasis
    (lam, W) of H0, written row-major, with (W, the (d²,) rates
    -i(lam_j - lam_k), the (d², d²) transpose gen of -i L(W† H1 W) with
    L(H) = H⊗I - I⊗Hᵀ, the constant target rho_d~ = W† rho_d0 W, and
    ||H1||_F, the scale of the feedback trace's realness check). H0 and H1
    are the pair's 4x4 reference matrices (`pair_matrices`)."""
    h0, h1 = pair_matrices(h)
    lam, w = np.linalg.eigh(h0)
    rho, rho_d = w.conj().T @ states @ w
    h1_norm = np.linalg.norm(h1)
    h1 = w.conj().T @ h1 @ w
    eye = np.eye(len(lam))
    gen = np.ascontiguousarray(-1j * (np.kron(h1, eye) - np.kron(eye, h1.T)).T)
    rates = -1j * np.subtract.outer(lam, lam).ravel()
    return (w, rates, gen, rho_d, h1_norm), rho.ravel()


def vec_rhs(frame: tuple, law: ControlLaw, t: float, y: np.ndarray) -> np.ndarray:
    """drho~/dt = -i f [U0† H1 U0, rho~] on y = vec rho~: in the eigenbasis
    U0 is the phase exp(-i (lam_j - lam_k) t) on each entry, and
    vec(x) @ gen = vec(-i[W† H1 W, x]); the feedback is
    kappa * Im Tr(rho_d [H1, rho]), a trace the frame leaves alone, whose
    real part is asserted to be roundoff.
    An open-loop field is 1 wherever it is stepped (see `dop853_run`)."""
    _, rates, gen, target, h1_norm = frame
    p = np.exp(rates * t)
    q = p.conj() * ((p * y) @ gen)
    if not isinstance(law, Lyapunov):
        return q
    # vdot(vec rho_d~, vec(-i[H1~, rho~])) = -i Tr(rho_d [H1, rho]) for Hermitian rho_d.
    tr = 1j * np.vdot(target, q)
    assert abs(tr.real) <= max(1e-10, _REALNESS_ROUNDING * h1_norm), tr
    return law.kappa * tr.imag * q


def dop853_run(
    h: HamiltonianPair,
    law: ControlLaw,
    psi0: np.ndarray,
    psi_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """A stepped reference propagator for any law, with the arguments of
    `integrate` and `propagate_exact`: scipy's DOP853 at rtol 1e-13 on
    vec rho~ (`vec_frame`, `vec_rhs`) from rho0 = psi0 psi0† and
    rho_d0 = psi_d0 psi_d0†, while the field is on, over [0, t_max] for
    feedback and [0, t0] for a geometric law; with the field off rho~ stays
    as it is. The states go through the package's boundary check
    (`dynamics._state_vectors`), so a bad one is rejected as the
    propagators reject it. The samples go through the pass
    `propagate_exact` ends in, `dynamics._diagnose`, with the count of
    samples before t0 for its open-loop f column; a feedback run's f column
    is `commutator_field` of each sample's state and target."""
    psi0, psi_d0 = _state_vectors(psi0, psi_d0)
    grid = dynamics._sample_grid(cfg)
    frame, y = vec_frame(h, np.stack([outer(psi0), outer(psi_d0)]))
    w, rates, _, target, _ = frame
    if isinstance(law, Lyapunov):
        t_on = grid[-1]
    else:
        t_on = min(law.t0, grid[-1]) if isinstance(law, Geometric) else 0.0
    # The open-loop field is 1 at the samples strictly before t0 and 0 from it on.
    n_on = int(np.count_nonzero(grid < law.t0)) if isinstance(law, Geometric) else 0
    ys = np.tile(y, (len(grid), 1))
    if t_on > 0.0:
        ref = solve_ivp(lambda t, y: vec_rhs(frame, law, t, y), (0.0, t_on), y,
                        method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
        assert ref.success
        on = grid <= t_on
        ys[on] = ref.sol(grid[on]).T
        ys[~on] = ref.y[:, -1]
    tilde = np.stack([ys, np.broadcast_to(target.ravel(), ys.shape)], axis=1)
    tilde *= np.exp(np.multiply.outer(grid, rates))[:, None]
    d = len(w)
    states = w @ tilde.reshape(len(grid), 2, d, d) @ w.conj().T
    if not isinstance(law, Lyapunov):
        return dynamics._diagnose(h, law, n_on, grid, states, cfg.v_stop)
    traj = dynamics._diagnose(h, None, 0, grid, states, cfg.v_stop)
    f = commutator_field(traj.rho, traj.rho_d, pair_matrices(h)[1], law.kappa)
    return dataclasses.replace(traj, f=f, metadata=dataclasses.replace(traj.metadata, law=law))
