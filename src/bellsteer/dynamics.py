"""Closed-loop integration of the controlled state against its drifting
target, and exact open-loop propagation.

The closed loop drho/dt = -i [H0 + f(rho, rho_d, t) H1, rho] steers rho
towards the target rho_d(t) = U0(t) rho_d0 U0(t)†, U0(t) = exp(-i H0 t).
`integrate` steps only rho~ = U0(t)† rho U0(t), whose derivative is the
control term alone (`rhs`), with an adaptive embedded Dormand-Prince 5(4)
scheme while the field is on (the whole run under feedback, which every
stage re-evaluates; up to t0 for a geometric law), and reads its samples off
the scheme's continuous extension; rho~ holds still after. Every sample's state
and target are the exact free evolution of rho~ and rho_d0, by the
eigendecomposition path (`_from_eigenbasis`, `_evolve`) that `propagate_exact`
uses for open-loop runs (a geometric law or none).
`vdot_identity_check` steps the same flow to check the descent identity of
the feedback law. Both propagators end in the one pass `_diagnose`: the
v_stop cut, the unitary-dynamics invariants (trace, Hermiticity, purity,
positivity) at every output sample, the field column, then V, concurrence
and p_S. Violations beyond ten times the stated tolerances abort the run at
the first bad sample; nothing is silently renormalized, because the descent
property of the feedback law is exactly what the integration is supposed to
expose.
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
# Its free 4th-order continuous extension (Hairer, Norsett & Wanner, ODE I
# II.6; Shampine, Math. Comp. 46 (1986) 135): within a step of size h from y,
# y(t + theta h) = y + h ([theta, theta², theta³, theta⁴] @ _DENSE.T) @ k over
# the step's seven stages k, the 7th being the FSAL stage.
_DENSE = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
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


def rhs(frame: tuple, law: ControlLaw, t: float, y: np.ndarray) -> np.ndarray:
    """The derivative of y = vec rho~, rho~ = U0(t)† rho U0(t) with
    U0(t) = exp(-i H0 t) written in the eigenbasis of H0, with the field on.

    Only the control term is left: drho~/dt = -i f [U0† H1 U0, rho~]. In the
    eigenbasis U0 is the phase p_jk = exp(-i (lam_j - lam_k) t) on each entry,
    and for a row-major vec, vec(x) @ gen = vec(-i[W† H1 W, x]). f is 1 for an
    open-loop law (`integrate` steps it only while on) and sign * kappa *
    Im Tr(rho_d [H1, rho]) for feedback, a trace the frame leaves alone.
    """
    _, rates, gen, target = frame
    p = np.exp(rates * t)
    q = p.conj() * ((p * y) @ gen)
    if isinstance(law, Lyapunov):
        # vdot(vec rho_d~, vec(-i[H1~, rho~])) = -i Tr(rho_d [H1, rho]) for Hermitian rho_d.
        return feedback_from_trace(1j * np.vdot(target, q), law.kappa, law.sign) * q
    return q


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
    k1 = rhs(frame, law, 0.0, y)

    def rk4(step: float) -> np.ndarray:
        k2 = rhs(frame, law, 0.5 * step, y + 0.5 * step * k1)
        k3 = rhs(frame, law, 0.5 * step, y + 0.5 * step * k2)
        k4 = rhs(frame, law, step, y + step * k3)
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
    t: np.ndarray,
    states: np.ndarray,
    v_stop: float | None,
    stats: IntegratorStats | None = None,
) -> Trajectory:
    """The one pass both propagators end in, over the (n, 2, d, d)
    state/target stack at the times t, in this order:

    1. with v_stop set, the run is cut at the first sample after t = 0 whose
       V is below v_stop, which it keeps;
    2. the invariants are checked (`_check_invariants`) against the purities
       of the initial stack, so the first bad sample aborts the run;
    3. the field column is the law's field at each sample: the feedback
       `control_field` of every state and target at once, the geometric
       switch at the sample times, or 0;
    4. V, concurrence and p_S are taken for every sample at once, with the
       stall flag.

    A reduced pair-frame state is embedded back into 4D XProduct coordinates
    for the concurrence; it lives wholly in the invariant subspace, so its
    p_S is Tr(rho).
    """
    v = lyapunov_value(states[:, 0], states[:, 1])
    below = np.flatnonzero(v[1:] < v_stop) if v_stop is not None else ()
    n = int(below[0]) + 2 if len(below) else len(t)
    t, states, v = t[:n], states[:n], v[:n]
    _check_invariants(t[1:], states[1:], _purity(states[0]))
    if law is None:
        f = np.zeros(n)
    elif isinstance(law, Geometric):
        f = np.array([geometric_field(ti, law) for ti in t])
    else:
        f = control_field(states[:, 0], states[:, 1], h.h1, law.kappa, law.sign)

    rho, rho_d = states[:, 0], states[:, 1]
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
    meta = TrajectoryMetadata(h.params, h.paradigm, law, stalled, stats)
    return Trajectory(t, rho, rho_d, f, v, c, p_s, meta)


def integrate(
    h: HamiltonianPair,
    law: ControlLaw,
    rho0: np.ndarray,
    rho_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate the closed loop over [0, t_max] and sample it.

    Steps rho~ (see `rhs`) only while the field is on, up to t_on: t_max under
    feedback, min(t0, t_max) for a geometric law and 0 with no law. Each sample
    a step passes is read off the step's continuous extension (`_DENSE`) at no
    `rhs` call; each later one holds rho~(t_on), as rho~ stands still once the
    field is off. With v_stop set, stepping ends after the first step that
    passes a sample with V < v_stop. The samples taken end in `_diagnose`, also
    when an error is raised mid-run: the error is re-raised after that pass,
    unless the pass finds an earlier invariant violation, the error reported.
    """
    y0 = _initial_states(h, rho0, rho_d0)
    frame, y = _frame(h, y0)
    free, tilde_d = frame[0], frame[3]
    grid = _sample_grid(cfg)
    t_on = cfg.t_max if isinstance(law, Lyapunov) else 0.0
    if isinstance(law, Geometric):
        t_on = min(law.t0, cfg.t_max)
    tol = 1e-10 * max(1.0, t_on)  # a step that ends within tol of t_on ends there

    samples = np.empty((len(grid),) + tilde_d.shape, dtype=complex)
    samples[0] = y.reshape(tilde_d.shape)
    abs_y = np.abs(y)
    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(frame, law, 0.0, y)
    n = 1  # samples taken
    steps = []  # accepted step sizes
    rejected = 0

    t = 0.0
    h_step = cfg.dt
    error = None
    try:
        while t_on - t > tol:
            h_try = min(h_step, t_on - t)
            if h_try < 1e-13:
                last = f"h={steps[-1]:.3e} ending at t={t:.6g}" if steps else "none"
                raise IntegrationError(
                    f"step size underflow (h={h_try:.3e}; last accepted step {last})", t
                )

            # One embedded DP5(4) attempt; the 7th stage input is the new state.
            coef = h_try * _TABLEAU
            for i in range(1, 7):
                y_new = y + coef[i, :i] @ k[:i]
                k[i] = rhs(frame, law, t + _C[i] * h_try, y_new)
            abs_new = np.abs(y_new)
            scaled = (coef[7] @ k) / (cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new))
            err = math.sqrt(np.vdot(scaled, scaled).real / scaled.size)

            if not err <= 1.0:  # a NaN error is a rejection too
                rejected += 1
                h_step = h_try * max(0.2, 0.9 * err ** -0.2)
                continue
            t_new = t + h_try
            if t_on - t_new <= tol:
                t_new = t_on
            m = int(np.searchsorted(grid, t_new, side="right"))  # samples in (t, t_new]
            if m > n:
                theta = ((grid[n:m] - t) / h_try)[:, None] ** np.arange(1, 5)
                dense = y + h_try * (theta @ _DENSE.T) @ k
                samples[n:m] = dense.reshape((m - n,) + tilde_d.shape)
            t, y, abs_y = t_new, y_new, abs_new
            k[0] = k[6]  # FSAL
            steps.append(h_try)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h_step = h_try * factor
            new, n = samples[n:m], m
            # V is unchanged by the frame, so it is taken on rho~ against rho_d~.
            if cfg.v_stop is not None and np.any(
                lyapunov_value(new, np.broadcast_to(tilde_d, new.shape)) < cfg.v_stop
            ):
                break
        else:  # stepping reached t_on, after which rho~ holds still
            samples[n:] = y.reshape(tilde_d.shape)
            n = len(grid)
    except (IntegrationError, ValueError) as exc:
        error = exc

    states = np.empty((n,) + y0.shape, dtype=complex)
    states[:, 0] = _from_eigenbasis(free, samples[:n], grid[:n])
    states[:, 1] = _evolve(free, y0[1], grid[:n])
    h_range = (float(min(steps)), float(max(steps))) if steps else (None, None)
    stats = IntegratorStats(len(steps), rejected, 1 + 6 * (len(steps) + rejected), *h_range)
    traj = _diagnose(h, law, grid[:n], states, cfg.v_stop, stats)
    if error is not None:
        raise error
    return traj


def _evolve(eig: tuple[np.ndarray, np.ndarray], rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """U(t) rho U(t)† for every t in times, U(t) = W diag(exp(-i lam t)) W†
    from the eigendecomposition (lam, W) of a constant Hamiltonian."""
    w = eig[1]
    return _from_eigenbasis(eig, w.conj().T @ rho @ w, times)


def _from_eigenbasis(
    eig: tuple[np.ndarray, np.ndarray], rho: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """U(t) W rho W† U(t)† for every t in times, U(t) as in `_evolve`, for rho
    written in the eigenbasis W (one matrix, or one per time). There the
    (j, k) entry of rho only picks up the phase exp(-i (lam_j - lam_k) t).
    """
    lam, w = eig
    phases = np.multiply.outer(times, -1j * np.subtract.outer(lam, lam))
    np.exp(phases, out=phases)
    phases *= rho
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
    # The field is on at the samples before t0.
    n_on = int(np.searchsorted(grid, law.t0)) if isinstance(law, Geometric) else 0

    free = np.linalg.eigh(h.h0)
    states = np.empty((len(grid),) + y0.shape, dtype=complex)
    states[:, 1] = _evolve(free, y0[1], grid)
    start, t_start = y0[0], 0.0
    if n_on:
        driven = np.linalg.eigh(h.h0 + h.h1)
        states[:n_on, 0] = _evolve(driven, start, grid[:n_on])
        start, t_start = _evolve(driven, start, np.array([law.t0]))[0], law.t0
    states[n_on:, 0] = _evolve(free, start, grid[n_on:] - t_start)
    return _diagnose(h, law, grid, states, cfg.v_stop)
