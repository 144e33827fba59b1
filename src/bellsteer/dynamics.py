"""Closed-loop integration of the controlled state against its drifting
target, and exact open-loop propagation.

The closed loop drho/dt = -i [H0 + f(rho, rho_d, t) H1, rho] steers rho
towards the target rho_d(t) = U0(t) rho_d0 U0(t)†, U0(t) = exp(-i H0 t).
`integrate` steps only rho~ = U0(t)† rho U0(t), whose derivative is the
control term alone (`rhs`), with an adaptive embedded Dormand-Prince 5(4)
scheme, and re-evaluates the feedback inside every stage. Every sample's
state and target are the exact free evolution `_evolve` of rho~ and rho_d0,
the eigendecomposition path by which `propagate_exact` forms open-loop runs
(a geometric law or none), whose Hamiltonian is constant on each interval.
`vdot_identity_check` steps the same flow to check the descent identity of
the feedback law. Unitary-dynamics invariants (trace, Hermiticity, purity,
positivity) are checked at every output sample, in one pass per run, and
violations beyond ten times the stated tolerances abort the run at the first
bad sample; nothing is silently renormalized, because the descent property
of the feedback law is exactly what the integration is supposed to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import (
    ControlLaw,
    Geometric,
    Lyapunov,
    control_field,
    feedback_from_trace,
    geometric_field,
    lyapunov_value,
)
from .linalg import expm, hs_norm
from .model import (
    HamiltonianPair,
    ModelParams,
    Paradigm,
    S_FRAME_BELL,
    S_FRAME_X,
    X_PRODUCT,
    subspace_populations,
)
from . import metrics

TRACE_TOL = 1e-9
HERM_TOL = 1e-9
PURITY_TOL = 1e-6
EIGEN_FLOOR = -1e-8
ABORT_FACTOR = 10.0

# Dormand-Prince 5(4) tableau. Rows 1-6 are the stage coefficients A[i, :i];
# row 6 is also the 5th-order weights B5, so the 7th stage input is the new
# state and its derivative is the next step's first stage (FSAL). Row 7 holds
# the error weights B5 - B4. Complex, so a matmul with the stages needs no cast.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_TABLEAU = np.array(
    [
        [0.0] * 7,
        [1 / 5, 0, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
        [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    ],
    dtype=complex,
)


class IntegrationError(RuntimeError):
    """Raised when the integrator cannot continue (step underflow or an
    invariant violation beyond the abort threshold)."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t={t:.6g})")
        self.t = t


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive-step configuration; times are in units of 1/J."""

    t_max: float
    dt: float = 0.01
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    sample_every: float = 0.1
    v_stop: float | None = None

    def __post_init__(self) -> None:
        for name in ("t_max", "dt", "rel_tol", "abs_tol", "sample_every"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.v_stop is not None and not math.isfinite(self.v_stop):
            raise ValueError(f"v_stop must be finite, got {self.v_stop}")


@dataclass(frozen=True)
class IntegratorStats:
    """How a DP5(4) run was stepped: accepted and rejected attempts, `rhs`
    evaluations (6 per attempt plus the first, under FSAL) and the smallest
    and largest accepted step (None when no step was taken)."""

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None


@dataclass(frozen=True)
class TrajectoryMetadata:
    params: ModelParams | None
    paradigm: Paradigm | None
    law: ControlLaw
    cfg: IntegratorConfig
    basis_tag: str
    stalled: bool
    integrator_stats: IntegratorStats | None = None  # None on the exact path


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples of the coupled run.

    Arrays share a common length n: t (n,), rho and rho_d (n, d, d), f, V,
    concurrence and p_S (n,). Times are strictly increasing.
    """

    t: np.ndarray
    rho: np.ndarray = field(repr=False)
    rho_d: np.ndarray = field(repr=False)
    f: np.ndarray
    V: np.ndarray
    concurrence: np.ndarray
    p_S: np.ndarray
    metadata: TrajectoryMetadata

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


def _frame(h: HamiltonianPair, states: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The interaction picture of H0 for `rhs`, and vec rho~ at t = 0, from the
    (2, d, d) initial state/target stack. The frame is ((lam, W), the (d²,)
    rates -i(lam_j - lam_k), the (d², d²) transpose gen of -i L(W† H1 W) with
    L(H) = H⊗I - I⊗Hᵀ, and the constant target rho_d~ = W† rho_d0 W), with
    (lam, W) the eigendecomposition of H0.
    """
    lam, w = eig = np.linalg.eigh(h.h0)
    rho, rho_d = w.conj().T @ states @ w
    h1 = w.conj().T @ h.h1 @ w
    eye = np.eye(len(lam))
    gen = np.ascontiguousarray(-1j * (np.kron(h1, eye) - np.kron(eye, h1.T)).T)
    return (eig, -1j * np.subtract.outer(lam, lam).ravel(), gen, rho_d), rho.ravel()


def rhs(frame: tuple, law: ControlLaw, t: float, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The closed-loop derivative of y = vec rho~, rho~ = U0(t)† rho U0(t)
    with U0(t) = exp(-i H0 t) written in the eigenbasis of H0, and the field.

    Only the control term is left: drho~/dt = -i f [U0† H1 U0, rho~]. In the
    eigenbasis U0 is the phase p_jk = exp(-i (lam_j - lam_k) t) on each entry,
    and for a row-major vec, vec(x) @ gen = vec(-i[W† H1 W, x]). f is 0 for
    no law, the switch for a geometric law, and sign * kappa *
    Im Tr(rho_d [H1, rho]) for feedback, a trace the frame leaves alone.
    """
    _, rates, gen, target = frame
    p = np.exp(rates * t)
    q = p.conj() * ((p * y) @ gen)
    if law is None:
        f = 0.0
    elif isinstance(law, Geometric):
        f = geometric_field(t, law)
    else:
        # vdot(vec rho_d~, vec(-i[H1~, rho~])) = -i Tr(rho_d [H1, rho]) for Hermitian rho_d.
        f = feedback_from_trace(1j * np.vdot(target, q), law.kappa, law.sign)
    return f * q, f


def geometric_evolve(h_tot: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Exact constant-Hamiltonian propagation U rho0 U†, U = expm(-i h_tot t)."""
    h_tot = np.asarray(h_tot, dtype=complex)
    herm = hs_norm(h_tot - h_tot.conj().T)
    if herm > 1e-10:
        raise ValueError(f"h_tot is not Hermitian (deviation {herm:.3e})")
    u = expm(-1j * h_tot * t)
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
    advanced by one classical RK4 step of `rhs` of size delta. The two agree
    within max(1e-6, 1e-3 |analytic|) for valid inputs.
    """
    y0 = _initial_states(h, rho, rho_d)
    frame, y = _frame(h, y0)
    k1 = rhs(frame, law, 0.0, y)[0]

    def rk4(step: float) -> np.ndarray:
        k2 = rhs(frame, law, 0.5 * step, y + 0.5 * step * k1)[0]
        k3 = rhs(frame, law, 0.5 * step, y + 0.5 * step * k2)[0]
        k4 = rhs(frame, law, step, y + step * k3)[0]
        return (y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(y0[0].shape)

    trace_term = control_field(y0[0], y0[1], h.h1, 1.0, 1)
    analytic = -law.sign * law.kappa * trace_term * trace_term
    fwd = rk4(delta)
    bwd = rk4(-delta)
    # V is unchanged by the frame, so it is taken on rho~ against rho_d~.
    numeric = (lyapunov_value(fwd, frame[3]) - lyapunov_value(bwd, frame[3])) / (2.0 * delta)
    return analytic, numeric


def _sample_grid(cfg: IntegratorConfig) -> np.ndarray:
    n = int(np.floor(cfg.t_max / cfg.sample_every + 1e-9))
    grid = np.arange(n + 1) * cfg.sample_every
    if grid[-1] < cfg.t_max - 1e-9 * max(1.0, cfg.t_max):
        grid = np.append(grid, cfg.t_max)
    elif n > 0:
        grid[-1] = cfg.t_max
    return grid


def _initial_states(h: HamiltonianPair, rho0: np.ndarray, rho_d0: np.ndarray) -> np.ndarray:
    """The initial state and target stacked as a (2, d, d) array."""
    rho = np.asarray(rho0, dtype=complex)
    rho_d = np.asarray(rho_d0, dtype=complex)
    if rho.shape != rho_d.shape or rho.shape != h.h0.shape:
        raise ValueError("state and Hamiltonian dimensions do not match")
    return np.stack([rho, rho_d])


def _purity(mats: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ji->...", mats, mats).real


def _check_invariants(t: np.ndarray, states: np.ndarray, purity0: np.ndarray) -> None:
    """Abort at the first sample that breaks an invariant.

    states is (n, 2, d, d): the state and the target at each time of t, with
    initial purities purity0. Within a sample the state's trace, Hermiticity
    and purity are checked first, then the target's, then the state's lowest
    eigenvalue.
    """
    adjoint = states.conj().swapaxes(-1, -2)
    drifts = {  # each (n, 2), with its tolerance
        "trace": (np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0), TRACE_TOL),
        "Hermiticity": (np.linalg.norm(states - adjoint, axis=(-2, -1)), HERM_TOL),
        "purity": (np.abs(_purity(states) - purity0), PURITY_TOL),
    }
    bad = {what: drift > ABORT_FACTOR * tol for what, (drift, tol) in drifts.items()}
    ev_min = np.linalg.eigvalsh(0.5 * (states[:, 0] + adjoint[:, 0]))[:, 0]
    bad_ev = ev_min < ABORT_FACTOR * EIGEN_FLOOR
    if not (bad_ev.any() or any(mask.any() for mask in bad.values())):
        return
    bad_sample = bad_ev | np.logical_or.reduce([mask.any(axis=1) for mask in bad.values()])
    i = int(np.flatnonzero(bad_sample)[0])
    for k, name in enumerate(("rho", "rho_d")):
        for what, mask in bad.items():
            if mask[i, k]:
                drift = drifts[what][0][i, k]
                raise IntegrationError(
                    f"{name} {what} drift {drift:.3e} exceeds abort threshold", float(t[i])
                )
    raise IntegrationError(f"rho eigenvalue {ev_min[i]:.3e} below abort threshold", float(t[i]))


def _diagnose(
    h: HamiltonianPair,
    law: ControlLaw,
    cfg: IntegratorConfig,
    t: np.ndarray,
    states: np.ndarray,
    f: np.ndarray,
    stats: IntegratorStats | None = None,
) -> Trajectory:
    """The diagnostics pass both propagators share: V, concurrence and p_S
    of every sample of the (n, 2, d, d) state/target stack at once, and the
    stall flag.

    A reduced pair-frame state is embedded back into 4D XProduct coordinates
    for the concurrence; it lives wholly in the invariant subspace, so its
    p_S is Tr(rho).
    """
    rho, rho_d = states[:, 0], states[:, 1]
    v = lyapunov_value(rho, rho_d)
    if rho.shape[1] == 4:
        c = metrics.concurrence(rho, h.basis)
        p_s = subspace_populations(rho, h.basis)[0]
    else:
        frame = S_FRAME_BELL if h.basis.tag == "Bell" else S_FRAME_X
        c = metrics.concurrence(frame @ rho @ frame.conj().T, X_PRODUCT)
        p_s = np.real(np.trace(rho, axis1=1, axis2=2))
    stalled = bool(
        isinstance(law, Lyapunov)
        and v[0] > 1e-12
        and np.max(np.abs(f)) <= 1e-14 * law.kappa * hs_norm(h.h1)
    )
    meta = TrajectoryMetadata(h.params, h.paradigm, law, cfg, h.basis.tag, stalled, stats)
    return Trajectory(t, rho, rho_d, f, v, c, p_s, meta)


def _open_loop_field(law: ControlLaw, times: np.ndarray) -> np.ndarray:
    """The field of a geometric law, or of none, at each of times."""
    if law is None:
        return np.zeros(len(times))
    return np.array([geometric_field(t, law) for t in times])


def integrate(
    h: HamiltonianPair,
    law: ControlLaw,
    rho0: np.ndarray,
    rho_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate the closed loop over [0, t_max] and sample it.

    Steps rho~ (see `rhs`), clipped to the sample grid and, for a geometric
    law, to the switch time t0, so the discontinuous field never straddles a
    step. With v_stop set, the run ends at the first sample where V < v_stop.
    The invariants of all samples are checked in one pass at the end, or
    before an error is raised mid-run, so the first bad sample still aborts
    the run.
    """
    y0 = _initial_states(h, rho0, rho_d0)
    frame, y = _frame(h, y0)
    free, tilde_d, w = frame[0], frame[3], frame[0][1]
    grid = _sample_grid(cfg)
    breakpoints = []
    if isinstance(law, Geometric) and 0.0 < law.t0 < cfg.t_max:
        breakpoints.append(law.t0)

    samples = np.empty((len(grid), y.size), dtype=complex)
    fs = np.empty(len(grid))
    abs_y = np.abs(y)
    k = np.empty((7, y.size), dtype=complex)
    k[0], f = rhs(frame, law, 0.0, y)
    samples[0], fs[0] = y, f
    n = 1  # samples taken
    steps = []  # accepted step sizes
    rejected = 0

    def checked_states(m: int) -> np.ndarray:
        """The lab-frame (m, 2, d, d) state/target stack of the first m samples."""
        states = np.empty((m,) + y0.shape, dtype=complex)
        states[:, 0] = _evolve(free, w @ samples[:m].reshape(-1, *w.shape) @ w.conj().T, grid[:m])
        states[:, 1] = _evolve(free, y0[1], grid[:m])
        _check_invariants(grid[1:m], states[1:], _purity(y0))
        return states

    t = 0.0
    h_step = cfg.dt
    try:
        for target in grid[1:]:
            snap_tol = 1e-10 * max(1.0, target)
            while target - t > snap_tol:
                next_stop = target
                for bp in breakpoints:
                    if bp - t > snap_tol and bp < next_stop:
                        next_stop = bp
                h_try = min(h_step, next_stop - t)
                if h_try < 1e-13:
                    last = f"h={steps[-1]:.3e} ending at t={t:.6g}" if steps else "none"
                    raise IntegrationError(
                        f"step size underflow (h={h_try:.3e}; last accepted step {last})", t
                    )

                # One embedded DP5(4) attempt; the 7th stage input is the new state.
                coef = h_try * _TABLEAU
                for i in range(1, 7):
                    y_new = y + coef[i, :i] @ k[:i]
                    k[i], f_new = rhs(frame, law, t + _C[i] * h_try, y_new)
                abs_new = np.abs(y_new)
                scaled = (coef[7] @ k) / (cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new))
                err = math.sqrt(np.vdot(scaled, scaled).real / scaled.size)

                if err <= 1.0:
                    t = t + h_try
                    y, abs_y, f = y_new, abs_new, f_new
                    k[0] = k[6]  # FSAL
                    steps.append(h_try)
                    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                    h_step = h_try * factor
                else:
                    rejected += 1
                    h_step = h_try * max(0.2, 0.9 * err ** -0.2)

            t = target
            samples[n], fs[n] = y, f
            n += 1
            if cfg.v_stop is not None and lyapunov_value(y.reshape(w.shape), tilde_d) < cfg.v_stop:
                break
    except (IntegrationError, ValueError):
        checked_states(n)  # an earlier invariant violation is the error to report
        raise
    states = checked_states(n)

    times = grid[:n]
    if not isinstance(law, Lyapunov):
        # A step clipped at t0 ends at t + (t0 - t), which can round below t0,
        # so the sample at t0 takes the law's field at the grid time instead.
        fs = _open_loop_field(law, times)
    h_range = (float(min(steps)), float(max(steps))) if steps else (None, None)
    stats = IntegratorStats(len(steps), rejected, 1 + 6 * (len(steps) + rejected), *h_range)
    return _diagnose(h, law, cfg, times, states, fs[:n], stats)


def _evolve(eig: tuple[np.ndarray, np.ndarray], rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """U(t) rho U(t)† for every t in times, U(t) = W diag(exp(-i lam t)) W†
    from the eigendecomposition (lam, W) of a constant Hamiltonian.

    In the eigenbasis the (j, k) entry of rho only picks up the phase
    exp(-i (lam_j - lam_k) t).
    """
    lam, w = eig
    phases = np.multiply.outer(times, -1j * np.subtract.outer(lam, lam))
    np.exp(phases, out=phases)
    phases *= w.conj().T @ rho @ w
    return w @ phases @ w.conj().T


def propagate_exact(
    h: HamiltonianPair,
    law: ControlLaw,
    rho0: np.ndarray,
    rho_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Exact samples of an open-loop run (a geometric law or none).

    Takes the arguments of `integrate` and returns the same Trajectory,
    invariant aborts and v_stop cut included, without a Runge-Kutta step:
    the Hamiltonian is H0 + H1 before a geometric switch time t0 and H0 from
    t0 on (a sample at exactly t0 is already off), so each interval takes one
    eigendecomposition and the state at t >= t0 is the free evolution of the
    state at t0.
    """
    if isinstance(law, Lyapunov):
        raise ValueError("feedback laws have no constant Hamiltonian; use integrate")
    y0 = _initial_states(h, rho0, rho_d0)
    grid = _sample_grid(cfg)
    f = _open_loop_field(law, grid)
    n_on = int(np.count_nonzero(f))

    free = np.linalg.eigh(h.h0)
    states = np.empty((len(grid),) + y0.shape, dtype=complex)
    states[:, 1] = _evolve(free, y0[1], grid)
    start, t_start = y0[0], 0.0
    if n_on:
        driven = np.linalg.eigh(h.h0 + h.h1)
        states[:n_on, 0] = _evolve(driven, start, grid[:n_on])
        start, t_start = _evolve(driven, start, np.array([law.t0]))[0], law.t0
    states[n_on:, 0] = _evolve(free, start, grid[n_on:] - t_start)

    if cfg.v_stop is not None:
        below = np.flatnonzero(lyapunov_value(states[1:, 0], states[1:, 1]) < cfg.v_stop)
        if below.size:
            n = int(below[0]) + 2
            grid, states, f = grid[:n], states[:n], f[:n]
    _check_invariants(grid[1:], states[1:], _purity(y0))
    return _diagnose(h, law, cfg, grid, states, f)
