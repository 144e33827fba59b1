"""Closed-loop integration of the controlled state against its drifting
target, and exact open-loop propagation.

The closed loop drho/dt = -i [H0 + f(rho, rho_d, t) H1, rho] steers rho
towards the target rho_d(t) = U0(t) rho_d0 U0(t)†, U0(t) = exp(-i H0 t).
For a pure state rho = psi psi† it is the Schrodinger equation
dpsi/dt = -i (H0 + f H1) psi. H0 and H1 commute with the parity X(x)X, and
every pair is diagonalised on its sectors, S = span{|++>, |-->} and the
complement (`_sector_eigh`). `integrate` takes feedback laws only and steps
only the state vector psi~ = W† U0(t)† psi in the eigenbasis W of H0, whose
derivative is the control term alone (`rhs`), and of psi~ only the sectors
where psi~ or the target has weight (`_frame`), 2 or 4 amplitudes. It steps
them with an adaptive embedded Dormand-Prince 5(4) scheme written out over
2 or 4 amplitudes, over the whole run (every stage re-evaluates the
feedback), and reads its samples off the scheme's continuous extension.
Its columns (V, field, concurrence, fidelity, p_S, purity) come from those
samples of psi~, the constant psi_d~ and, for concurrence and fidelity,
the lab states psi = W diag(exp(-i (lam - lam_0) t)) psi~, one row-wise
product over all samples: no density matrix is formed for them. rho =
psi psi† and the target, the exact free evolution of rho_d0 by the
eigendecomposition path (`_evolve`), are formed only when read.

`propagate_exact` solves the open-loop runs (a geometric law or none),
whose Hamiltonian is constant on each interval, by `_evolve`, and also
takes mixed states. It ends in `_diagnose`: the v_stop cut, the
unitary-dynamics invariants (trace, Hermiticity, purity, positivity) at
every output sample, the field column, then V, concurrence, fidelity, p_S
and purity, all on the (n, 2, d, d) state/target stack. Violations beyond
ten times the stated tolerances abort the run at the first bad sample. A
closed-loop sample psi psi† keeps all four invariants by construction, so
`integrate` checks the unit traces of its inputs, and `_dp5` the norm and
the S-sector norm of psi~ at every step. The tests check the descent
identity of the feedback law by stepping `rhs` (`tests/oracles.py`).

One thing is renormalized: after each accepted step, and at each sample,
psi~ is scaled back to its initial norm (the projection of Hairer, Lubich &
Wanner, Geometric Numerical Integration, IV.4). It is checked, not silent:
a step whose squared norm moved by more than ten times the trace tolerance
before the projection aborts the run, and the largest such drift of a run
is reported in its `IntegratorStats`. One projection moves V by at most
that drift (README), so the descent of the feedback law, which the
integration is to expose, is kept to roundoff. The population of S, which
the exact flow keeps too, is checked and reported the same way.
"""

from __future__ import annotations

import math
from cmath import exp
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .control import (
    ControlLaw,
    Geometric,
    Lyapunov,
    control_field,
    geometric_field,
    lyapunov_value,
)
from .model import (
    HamiltonianPair,
    ModelParams,
    Paradigm,
    SECTOR_ROWS,
    subspace_populations,
)
from . import metrics

TRACE_TOL = 1e-9
HERM_TOL = 1e-9
PURITY_TOL = 1e-6
EIGEN_FLOOR = -1e-8
ABORT_FACTOR = 10.0
# `integrate` steps rho as psi psi† when they differ by at most this in every entry.
_RANK_ONE_TOL = 1e-12
# 64 u (u = 2^-53): `_frame` steps a parity sector where psi~ or psi_d~ weighs more.
_SECTOR_WEIGHT = 64 * 2.0**-53
# 128 u: `_sector_eigh`'s bound on the off-block norm of H / ||H||_F. Three 4x4
# conjugations (by T, by SECTOR_ROWS T† and its own product) each round H by
# about 20 u ||H||_F at most (gamma_4 ||A||_F ||B||_F per product). Seen: 1.4 u.
_OFF_BLOCK = 128 * 2.0**-53

# Dormand-Prince 5(4) tableau, as plain floats for the written-out attempt in
# `_dp5`. _A holds the stage coefficients A[i, :i] of stages 2-6, at the
# nodes c = 1/5, 3/10, 4/5, 8/9 and 1. The 5th-order weights _B5 of k1, k3-k6
# (k2's is 0) give the new state, which is the 7th stage input, at c = 1; its
# derivative is the next step's first stage (FSAL). _ERR holds the error
# weights B5 - B4 of k1 and k3-k7.
_NODES = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_ERR = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Its free 4th-order continuous extension (Hairer, Norsett & Wanner, ODE I
# II.6; Shampine, Math. Comp. 46 (1986) 135): within a step of size h from y,
# y(t + theta h) = y + h sum_i b_i(theta) k_i, where row i of _DENSE holds the
# coefficients of theta, theta², theta³ and theta⁴ in b_i for k1 and k3-k7
# (b_2 = 0), the 7th stage being the FSAL stage.
_DENSE = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class IntegrationError(RuntimeError):
    """Raised when the integrator cannot continue (step underflow, or a norm
    drift or invariant violation beyond the abort threshold)."""

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
    evaluations (6 per attempt plus the first, under FSAL), the smallest and
    largest accepted step (None when no step was taken), the largest
    drift of the squared norm of psi~ that an accepted step left before its
    projection (0 with no step), the same after it for its S sector, p_S
    (0 for one sector), and how many eigen-amplitudes of H0 the run
    stepped: 2 for one parity sector, 4 for both (`_frame`)."""

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None
    max_norm_drift: float
    max_sector_drift: float
    amplitudes: int


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

    Arrays share a common length n: t (n,) and the columns f, V,
    concurrence, fidelity Tr(rho rho_d), p_S and purity Tr(rho²) (n,).
    Times are strictly increasing. The states rho and rho_d (n, d, d) are
    formed by form_rho and form_rho_d when first read: a closed-loop run
    takes its columns from psi~ and needs no density matrix for them.
    """

    t: np.ndarray
    f: np.ndarray
    V: np.ndarray
    concurrence: np.ndarray
    fidelity: np.ndarray
    p_S: np.ndarray
    purity: np.ndarray
    metadata: TrajectoryMetadata
    form_rho: Callable[[], np.ndarray] = field(repr=False)
    form_rho_d: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    @cached_property
    def rho(self) -> np.ndarray:
        return self.form_rho()

    @cached_property
    def rho_d(self) -> np.ndarray:
        return self.form_rho_d()


def _pure_state(rho: np.ndarray, name: str) -> np.ndarray:
    """psi with rho = psi psi^dagger, read off the column of rho's largest
    diagonal entry as `metrics.concurrence` does: rho e_k = psi conj(psi_k).
    Its squared norm is Tr rho. A ValueError, naming the purity defect
    |Tr rho² - (Tr rho)²|, unless rho is such a rank-one matrix to roundoff.
    """
    k = int(np.argmax(np.abs(np.diagonal(rho))))
    psi = rho[:, k] / math.sqrt(abs(rho[k, k]))
    if not np.max(np.abs(np.outer(psi, psi.conj()) - rho)) <= _RANK_ONE_TOL:
        defect = abs(np.trace(rho @ rho) - np.trace(rho) ** 2)
        raise ValueError(
            f"{name} is not a pure state (purity defect {defect:.3e}): integrate steps "
            "state vectors; propagate_exact takes mixed states"
        )
    return psi


def _sector_eigh(h: HamiltonianPair, fields: tuple = (0.0,)) -> tuple:
    """The eigendecompositions (lam, W) of H0 + f H1 for each f in fields;
    every propagator diagonalises a pair here. In sector coordinates Q H Q†,
    Q = SECTOR_ROWS T† (T the basis transform, S first), H0 and H1 must be
    block diagonal to _OFF_BLOCK, that is, commute with X(x)X, or it is a
    ValueError (the off-block that eigh would read is checked). The 2x2
    blocks of every H0 + f H1 go through one batched eigh, (lam_s, V_s) for
    sector s, and W = Q† blockdiag(V_S, V_perp): the (k, 4) lam, ascending
    within each sector, and the (k, 4, 4) W.
    """
    q = SECTOR_ROWS @ h.basis.transform.conj().T
    pair = np.stack([q @ op @ q.conj().T for op in (h.h0, h.h1)])
    sq = (pair * pair.conj()).real
    off = np.sqrt(sq[:, 2:, :2].sum(axis=(1, 2)))
    if (off > _OFF_BLOCK * np.sqrt(sq.sum(axis=(1, 2)))).any():
        raise ValueError(f"the pair does not commute with X(x)X (off-block norms of h0, h1: "
                         f"{off[0]:.3e}, {off[1]:.3e})")
    blocks = np.stack([pair[:, :2, :2], pair[:, 2:, 2:]], axis=1)  # (h0 or h1, sector)
    lam, v = np.linalg.eigh(blocks[0] + np.multiply.outer(fields, blocks[1]))
    w = np.zeros((len(fields), 4, 4), dtype=complex)
    w[:, :2, :2], w[:, 2:, 2:] = v[:, 0], v[:, 1]
    return lam.reshape(-1, 4), q.conj().T @ w


def _frame(h: HamiltonianPair, psi0: np.ndarray, psi_d0: np.ndarray) -> tuple[tuple, tuple]:
    """The interaction picture of H0 for `rhs`, and psi~ = W† psi0 at t = 0,
    on the parity sectors the run steps.

    (lam, W) is the eigendecomposition of H0 by `_sector_eigh`: columns 0
    and 1 of W span S, 2 and 3 its complement, and h = W† H1 W is block
    diagonal to roundoff, so only its diagonal blocks are kept and no
    amplitude crosses from one sector to the other. The run steps each
    sector where psi~ or psi_d~ = W† psi_d0 has a norm above _SECTOR_WEIGHT;
    the other holds a rounded zero (about 1e-17) and stays out.

    The frame is ((lam, W), the stepped columns, the coefficients of `rhs`,
    conj(psi_d~)). The coefficients are one flat tuple of Python complex
    numbers: for each stepped sector s its relative rate
    i (lam_2s - lam_2s+1) and its 2x2 block of h, row by row, then
    conj(psi_d~). Selecting columns keeps lam and W bit for bit. psi~ and
    conj(psi_d~) are tuples of Python complex numbers, 2 wide for one sector
    and 4 wide for both.
    """
    (lam,), (w,) = _sector_eigh(h)
    h1 = (w.conj().T @ h.h1 @ w).reshape(2, 2, 2, 2)  # (row sector, row, column sector, column)
    target, y = w.T @ psi_d0.conj(), w.conj().T @ psi0
    weight = np.linalg.norm(np.stack([y, target]).reshape(2, 2, 2), axis=2).max(axis=0)
    sectors = np.flatnonzero(weight > _SECTOR_WEIGHT)
    cols = (2 * sectors[:, None] + [0, 1]).ravel()
    target, y = (tuple(v[cols].tolist()) for v in (target, y))
    coeffs = []
    for k in sectors:
        coeffs += [1j * float(lam[2 * k] - lam[2 * k + 1]), *h1[k, :, k].ravel().tolist()]
    return ((lam, w), cols, tuple(coeffs) + target, target), y


def rhs(frame: tuple, law: Lyapunov, t: float, y: tuple) -> tuple:
    """The derivative of y = psi~ = W† U0(t)† psi, the state in the interaction
    picture of U0(t) = exp(-i H0 t) written on the stepped columns of the
    eigenbasis W of H0 (`_frame`), under the feedback law. y holds 2 or 4
    Python complex numbers, one parity sector or both, and so does the
    result. On 2 it does what the 4-wide branch does for either sector, in
    the same order.

    Only the control term is left: dpsi~/dt = -i f E h E* psi~, with
    h = W† H1 W, one 2x2 block per sector, and E = diag(exp(i lam t)).
    Within sector s, E h E* is [[h00, h01 r], [h10 / r, h11]] with
    r = exp(i (lam_2s - lam_2s+1) t), one phase factor per sector. The
    field is f = sign * kappa * Im Tr(rho_d [H1, rho]) = 2 sign kappa Im(a conj(b))
    for rho = psi psi† and rho_d = psi_d psi_d†, with a = <psi_d|H1 psi> and
    b = <psi_d|psi>; the frame leaves both alone, and there psi_d~ is constant.
    The trace is imaginary by construction, so there is no realness to check.
    """
    if len(y) == 2:
        r, h00, h01, h10, h11, g0, g1 = frame[2]
        e = exp(r * t)
        y0, y1 = y
        v0 = h00 * y0 + h01 * e * y1
        v1 = h10 / e * y0 + h11 * y1
        a = g0 * v0 + g1 * v1
        b = g0 * y0 + g1 * y1
        m = -2j * law.sign * law.kappa * (a * b.conjugate()).imag
        return m * v0, m * v1
    r0, h00, h01, h10, h11, r1, h22, h23, h32, h33, g0, g1, g2, g3 = frame[2]
    e0, e1 = exp(r0 * t), exp(r1 * t)
    y0, y1, y2, y3 = y
    v0 = h00 * y0 + h01 * e0 * y1
    v1 = h10 / e0 * y0 + h11 * y1
    v2 = h22 * y2 + h23 * e1 * y3
    v3 = h32 / e1 * y2 + h33 * y3
    a = g0 * v0 + g1 * v1 + g2 * v2 + g3 * v3
    b = g0 * y0 + g1 * y1 + g2 * y2 + g3 * y3
    m = -2j * law.sign * law.kappa * (a * b.conjugate()).imag
    return m * v0, m * v1, m * v2, m * v3


def _sample_grid(cfg: IntegratorConfig) -> np.ndarray:
    """Every multiple of sample_every up to t_max, and t_max itself when the
    last multiple falls short of it by more than 1e-9 t_max."""
    n = int(np.floor(cfg.t_max / cfg.sample_every + 1e-9))
    grid = np.arange(n + 1) * cfg.sample_every
    if grid[-1] < cfg.t_max - 1e-9 * cfg.t_max:
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


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a_k b_k) for each pair of an (n, d, d) stack, as one row-wise sum."""
    return np.einsum("nij,nji->n", a, b).real


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
) -> Trajectory:
    """The pass `propagate_exact` ends in, over the (n, 2, d, d) state/target
    stack at the times t, which may be mixed, in this order:

    1. with v_stop set, the run is cut at the first sample after t = 0 whose
       V is below v_stop, which it keeps;
    2. the invariants are checked (`_check_invariants`) against the purities
       of the initial stack, so the first bad sample aborts the run;
    3. the field column is the law's field at each sample: the geometric
       switch at the sample times, 0 for no law, and for a feedback law,
       which only a stepped reference outside `integrate` hands in, the
       `control_field` of every state and target at once;
    4. V, concurrence, fidelity, p_S and purity are taken for every sample
       at once in the pair's basis.

    `integrate` takes its columns from psi~ instead, stall flag included.
    """
    v = lyapunov_value(states[:, 0], states[:, 1])
    below = np.flatnonzero(v[1:] < v_stop) if v_stop is not None else ()
    n = int(below[0]) + 2 if len(below) else len(t)
    t, states, v = t[:n], states[:n], v[:n]
    _check_invariants(t[1:], states[1:], _purity(states[0]))
    rho, rho_d = states[:, 0], states[:, 1]
    if law is None:
        f = np.zeros(n)
    elif isinstance(law, Geometric):
        f = geometric_field(t, law)
    else:
        f = control_field(rho, rho_d, h.h1, law.kappa, law.sign)
    c = metrics.concurrence(rho, h.basis)
    p_s = subspace_populations(rho, h.basis)[0]
    fid, pur = _trace_products(rho, rho_d), _trace_products(rho, rho)
    meta = TrajectoryMetadata(h.params, h.paradigm, law, False)
    return Trajectory(t, f, v, c, fid, p_s, pur, meta, lambda: rho, lambda: rho_d)


def integrate(
    h: HamiltonianPair,
    law: ControlLaw,
    rho0: np.ndarray,
    rho_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate the closed loop of a feedback law over [0, t_max] and sample it.

    Steps psi~ (see `rhs` and `_dp5`) over the whole run, so it factors rho0
    and rho_d0 as psi psi† (`_pure_state`), and both must be pure. An
    open-loop law is rejected: its Hamiltonian is constant on each interval,
    and `propagate_exact` solves that exactly.

    The columns are a few row-wise operations on the samples of psi~ and
    the constant psi_d~, with b = <psi_d~|psi~> and squared norms N, N_d
    (README): V = (N - N_d)²/2 + N_d ||psi~ - psi_d~ b/N_d||², which keeps
    its relative accuracy far below the roundoff of N² and |b|², the field
    by `rhs`'s formula, p_S the squared norm of the S columns, and
    concurrence |psi^T S psi|, fidelity |<psi_d|psi>|² and purity ||psi||⁴
    on the lab vectors psi = W diag(exp(-i (lam - lam_0) t)) psi~ and psi_d.
    The run is cut at v_stop as in `_diagnose`. psi psi† keeps its trace,
    Hermiticity, purity and spectrum by construction, so of the invariants
    only the unit traces of rho0 and rho_d0 are checked, a violation being
    reported at the first sample after t = 0 and before an error raised
    mid-run. A run is stalled when it starts off target (V > 1e-12), V
    stays within 64 u of V(0), and it spans a period 2 pi/w of each stepped
    sector whose rate w (`rhs`'s |r|) is above the roundoff _OFF_BLOCK
    ||H0||_F: dV/dt = -sign f²/kappa, each computed V is within 32 u of its
    sample's exact V, and the field of a constant psi~ turns with the phase
    exp(i w t), so a shorter run (5e-11 from |++> towards Phi+) cannot tell
    a fixed point from a field still to rise. The field is no test: at a
    fixed point the stepper lets roundoff grow below its tolerance, to
    |f| = 4e-13 from |00> towards Phi+ at kappa = 2. The Trajectory's
    rho = psi psi† and rho_d, the free evolution of rho_d0 by `_evolve`,
    are formed only when read.
    """
    if not isinstance(law, Lyapunov):
        raise ValueError("open-loop laws have a constant Hamiltonian; use propagate_exact")
    pair = _initial_states(h, rho0, rho_d0)
    grid = _sample_grid(cfg)
    frame, y = _frame(h, _pure_state(pair[0], "rho0"), _pure_state(pair[1], "rho_d0"))
    samples, stats, error = _dp5(frame, law, y, grid, cfg)
    t = grid[: len(samples)]
    target = np.array(frame[3])  # conj(psi_d~)
    norm, norm_d = _sq_norm(samples), _sq_norm(target)
    b = samples @ target
    v = 0.5 * (norm - norm_d) ** 2 + norm_d * _sq_norm(
        samples - np.multiply.outer(b / norm_d, target.conj())
    )
    below = np.flatnonzero(v[1:] < cfg.v_stop) if cfg.v_stop is not None else ()
    n = int(below[0]) + 2 if len(below) else len(t)
    t, samples, b, v = t[:n], samples[:n], b[:n], v[:n]
    if n > 1:
        drifts = np.abs(np.trace(pair, axis1=1, axis2=2) - 1.0)
        for name, drift in zip(("rho", "rho_d"), drifts):
            if drift > ABORT_FACTOR * TRACE_TOL:
                raise IntegrationError(
                    f"{name} trace drift {drift:.3e} exceeds abort threshold", float(t[1])
                )
    if error is not None:
        raise error

    free, cols = frame[:2]
    lam, w = free[0][cols], free[1][:, cols]
    # Phases relative to the first stepped column's lam, a global phase psi psi† drops:
    # its row and column of rho then carry the phases `_evolve` gives the target.
    phases = np.exp(np.multiply.outer(t, -1j * (lam - lam[0])))
    psi, psi_d = (samples * phases) @ w.T, (target.conj() * phases) @ w.T
    c = np.abs(((psi @ metrics.spin_flip(h.basis)) * psi).sum(axis=1))
    overlap = (psi_d.conj() * psi).sum(axis=1)
    fid = overlap.real**2 + overlap.imag**2
    # `rhs`'s v = E h E* psi~ for each stepped sector j, from its rate and 2x2 block.
    hv = np.empty_like(samples)
    for j in range(len(cols) // 2):
        r, h00, h01, h10, h11 = frame[2][5 * j: 5 * j + 5]
        e, y0, y1 = np.exp(r * t), samples[:, 2 * j], samples[:, 2 * j + 1]
        hv[:, 2 * j] = h00 * y0 + h01 * e * y1
        hv[:, 2 * j + 1] = h10 / e * y0 + h11 * y1
    f = 2 * law.sign * law.kappa * ((hv @ target) * b.conj()).imag
    p_s = _sq_norm(samples[:, cols < 2])
    # `_sector_eigh` rounds a block's eigenvalues by at most its off-block bound.
    rates = np.abs(lam[::2] - lam[1::2])
    spanned = (t[-1] * rates >= 2 * math.pi) | (rates <= _OFF_BLOCK * np.linalg.norm(h.h0))
    stalled = bool(v[0] > 1e-12 and np.max(np.abs(v - v[0])) <= 64 * 2.0**-53 and spanned.all())
    meta = TrajectoryMetadata(h.params, h.paradigm, law, stalled, stats)
    return Trajectory(
        t, f, v, c, fid, p_s, _sq_norm(psi) ** 2, meta,
        lambda: psi[:, :, None] * psi[:, None, :].conj(), lambda: _evolve(free, pair[1], t),
    )


def _sq_norm(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a complex array, or of a complex vector."""
    return (rows.real * rows.real + rows.imag * rows.imag).sum(axis=-1)


def _dp5(
    frame: tuple, law: Lyapunov, y: tuple, grid: np.ndarray, cfg: IntegratorConfig
) -> tuple[np.ndarray, IntegratorStats, Exception | None]:
    """Step psi~ from y at t = 0 to t_max with the adaptive DP5(4) pair,
    written out over the 2 or 4 amplitudes of the frame (`_frame`) with no
    numpy call inside an attempt. The 2-amplitude loop does what the
    4-amplitude one does, in the same order, with the other terms left out.
    Every stage goes through the module's `rhs`, 6 calls per attempt and
    one for the first. The error norm is the RMS over the pair's 4 levels,
    where a level that is not stepped counts as zero error; an attempt
    whose error is NaN, or overflows to inf, is rejected.

    After each accepted step psi~ is scaled back to its initial squared norm
    N0 by c = sqrt(N0/N). A step whose N drifted from N0 by more than
    ABORT_FACTOR * TRACE_TOL aborts the run, and so does one after which
    the squared norm of the S sector, the first two of 4 amplitudes, has
    drifted by more than that from its initial value. The FSAL stage is
    rescaled by c³, not re-evaluated, as the field is quadratic in psi~. Each
    sample a step passes is read off the step's continuous extension
    (`_DENSE`, with hs theta² factored out of the terms of k3-k7) at no
    `rhs` call and scaled to N0; the samples are collected in a list and
    become one array after stepping. The last step ends at t_max, the last
    sample time; a step that ends within 1e-10 t_max of it ends there. With
    v_stop set, stepping ends after the first step that passes a sample with
    V < v_stop, V in `integrate`'s form.

    Returns the (n, len(y)) samples of psi~ at the first n times of grid,
    the run's IntegratorStats, and the error that ended it early (or None).
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), a6 = _A
    a61, a62, a63, a64, a65 = a6
    c2, c3, c4, c5 = _NODES
    b1, b3, b4, b5, b6 = _B5
    e1, e3, e4, e5, e6, e7 = _ERR
    (_, d12, d13, d14), (_, d32, d33, d34), (_, d42, d43, d44) = _DENSE[:3]
    (_, d52, d53, d54), (_, d62, d63, d64), (_, d72, d73, d74) = _DENSE[3:]
    atol, rtol, v_stop, t_max = cfg.abs_tol, cfg.rel_tol, cfg.v_stop, cfg.t_max
    tol = 1e-10 * t_max
    target = frame[3]  # conj(psi_d~)
    norm0 = sum(m * m for m in map(abs, y))
    # V = (N0 - N_d)²/2 + N_d ||psi~ - psi_d~ b/N_d||², b = <psi_d~|psi~>, as in `integrate`.
    norm_d = sum(abs(g) ** 2 for g in target)
    v_norms = 0.5 * (norm0 - norm_d) ** 2
    limit = ABORT_FACTOR * TRACE_TOL
    sector0 = sum(m * m for m in map(abs, y[:2]))  # the S sector of 4 amplitudes
    times = grid.tolist() + [math.inf]  # the sentinel ends every sample loop
    out = [y]  # the samples taken
    ka = rhs(frame, law, 0.0, y)
    n = 1  # len(out): the index in times of the next sample
    steps = []  # accepted step sizes
    rejected = 0
    max_drift = max_sector = 0.0

    t = 0.0
    h_step = cfg.dt
    error = None
    try:
        if len(y) == 2:
            (g0, g1), (y0, y1), (ka0, ka1) = target, y, ka
            p0, p1 = g0.conjugate(), g1.conjugate()  # psi_d~
            my0, my1 = abs(y0), abs(y1)
            while t_max - t > tol:
                hs = t_max - t
                if h_step < hs:
                    hs = h_step
                if hs < 1e-13:
                    last = f"h={steps[-1]:.3e} ending at t={t:.6g}" if steps else "none"
                    raise IntegrationError(
                        f"step size underflow (h={hs:.3e}; last accepted step {last})", t
                    )

                # One embedded DP5(4) attempt: stages ka..kg, new state z.
                x1 = hs * a21
                kb0, kb1 = rhs(frame, law, t + c2 * hs, (y0 + x1 * ka0, y1 + x1 * ka1))
                x1, x2 = hs * a31, hs * a32
                kc0, kc1 = rhs(frame, law, t + c3 * hs, (
                    y0 + x1 * ka0 + x2 * kb0, y1 + x1 * ka1 + x2 * kb1))
                x1, x2, x3 = hs * a41, hs * a42, hs * a43
                kd0, kd1 = rhs(frame, law, t + c4 * hs, (
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1))
                x1, x2, x3, x4 = hs * a51, hs * a52, hs * a53, hs * a54
                ke0, ke1 = rhs(frame, law, t + c5 * hs, (
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1))
                x1, x2, x3, x4, x5 = hs * a61, hs * a62, hs * a63, hs * a64, hs * a65
                kf0, kf1 = rhs(frame, law, t + hs, (
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0 + x5 * ke0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1 + x5 * ke1))
                x1, x3, x4, x5, x6 = hs * b1, hs * b3, hs * b4, hs * b5, hs * b6
                z0 = y0 + x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0
                z1 = y1 + x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1
                kg0, kg1 = rhs(frame, law, t + hs, (z0, z1))
                mz0, mz1 = abs(z0), abs(z1)
                x1, x3, x4, x5, x6, x7 = hs * e1, hs * e3, hs * e4, hs * e5, hs * e6, hs * e7
                s0 = (abs(x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0 + x7 * kg0)
                      / (atol + rtol * (my0 if my0 > mz0 else mz0)))
                s1 = (abs(x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1 + x7 * kg1)
                      / (atol + rtol * (my1 if my1 > mz1 else mz1)))
                err = math.sqrt((s0 * s0 + s1 * s1) / 4)

                if not err <= 1.0:  # a NaN or inf error is a rejection too
                    rejected += 1
                    q = 0.9 * err ** -0.2
                    h_step = hs * (q if q > 0.2 else 0.2)
                    continue
                t_new = t + hs
                if t_max - t_new <= tol:
                    t_new = t_max
                norm = mz0 * mz0 + mz1 * mz1
                drift = abs(norm - norm0)
                if drift > limit:
                    raise IntegrationError(
                        f"psi~ norm drift {drift:.3e} exceeds abort threshold", t_new
                    )
                if drift > max_drift:
                    max_drift = drift
                below = False
                while times[n] <= t_new:  # samples in (t, t_new]
                    th = (times[n] - t) / hs
                    q = hs * th * th
                    x1 = hs * th * (1.0 + th * (d12 + th * (d13 + th * d14)))
                    x3 = q * (d32 + th * (d33 + th * d34))
                    x4 = q * (d42 + th * (d43 + th * d44))
                    x5 = q * (d52 + th * (d53 + th * d54))
                    x6 = q * (d62 + th * (d63 + th * d64))
                    x7 = q * (d72 + th * (d73 + th * d74))
                    o0 = y0 + x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0 + x7 * kg0
                    o1 = y1 + x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1 + x7 * kg1
                    m0, m1 = abs(o0), abs(o1)
                    c = math.sqrt(norm0 / (m0 * m0 + m1 * m1))
                    o0, o1 = c * o0, c * o1
                    out.append((o0, o1))
                    n += 1
                    if v_stop is not None:
                        bn = (g0 * o0 + g1 * o1) / norm_d
                        r0, r1 = o0 - bn * p0, o1 - bn * p1
                        below = below or v_norms + norm_d * (
                            abs(r0) ** 2 + abs(r1) ** 2) < v_stop
                c = math.sqrt(norm0 / norm)
                y0, y1 = c * z0, c * z1
                my0, my1 = c * mz0, c * mz1
                c = c * c * c
                ka0, ka1 = c * kg0, c * kg1  # FSAL
                t = t_new
                steps.append(hs)
                q = 5.0 if err == 0.0 else 0.9 * err ** -0.2
                h_step = hs * (q if q < 5.0 else 5.0)
                if below:
                    break
        else:
            (g0, g1, g2, g3), (y0, y1, y2, y3), (ka0, ka1, ka2, ka3) = target, y, ka
            p0, p1, p2, p3 = (g.conjugate() for g in target)  # psi_d~
            my0, my1, my2, my3 = abs(y0), abs(y1), abs(y2), abs(y3)
            while t_max - t > tol:
                hs = t_max - t
                if h_step < hs:
                    hs = h_step
                if hs < 1e-13:
                    last = f"h={steps[-1]:.3e} ending at t={t:.6g}" if steps else "none"
                    raise IntegrationError(
                        f"step size underflow (h={hs:.3e}; last accepted step {last})", t
                    )

                # One embedded DP5(4) attempt: stages ka..kg, new state z.
                x1 = hs * a21
                kb0, kb1, kb2, kb3 = rhs(frame, law, t + c2 * hs, (
                    y0 + x1 * ka0, y1 + x1 * ka1, y2 + x1 * ka2, y3 + x1 * ka3))
                x1, x2 = hs * a31, hs * a32
                kc0, kc1, kc2, kc3 = rhs(frame, law, t + c3 * hs, (
                    y0 + x1 * ka0 + x2 * kb0,
                    y1 + x1 * ka1 + x2 * kb1,
                    y2 + x1 * ka2 + x2 * kb2,
                    y3 + x1 * ka3 + x2 * kb3))
                x1, x2, x3 = hs * a41, hs * a42, hs * a43
                kd0, kd1, kd2, kd3 = rhs(frame, law, t + c4 * hs, (
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1,
                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2,
                    y3 + x1 * ka3 + x2 * kb3 + x3 * kc3))
                x1, x2, x3, x4 = hs * a51, hs * a52, hs * a53, hs * a54
                ke0, ke1, ke2, ke3 = rhs(frame, law, t + c5 * hs, (
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1,
                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2 + x4 * kd2,
                    y3 + x1 * ka3 + x2 * kb3 + x3 * kc3 + x4 * kd3))
                x1, x2, x3, x4, x5 = hs * a61, hs * a62, hs * a63, hs * a64, hs * a65
                kf0, kf1, kf2, kf3 = rhs(frame, law, t + hs, (
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0 + x5 * ke0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1 + x5 * ke1,
                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2 + x4 * kd2 + x5 * ke2,
                    y3 + x1 * ka3 + x2 * kb3 + x3 * kc3 + x4 * kd3 + x5 * ke3))
                x1, x3, x4, x5, x6 = hs * b1, hs * b3, hs * b4, hs * b5, hs * b6
                z0 = y0 + x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0
                z1 = y1 + x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1
                z2 = y2 + x1 * ka2 + x3 * kc2 + x4 * kd2 + x5 * ke2 + x6 * kf2
                z3 = y3 + x1 * ka3 + x3 * kc3 + x4 * kd3 + x5 * ke3 + x6 * kf3
                kg0, kg1, kg2, kg3 = rhs(frame, law, t + hs, (z0, z1, z2, z3))
                mz0, mz1, mz2, mz3 = abs(z0), abs(z1), abs(z2), abs(z3)
                x1, x3, x4, x5, x6, x7 = hs * e1, hs * e3, hs * e4, hs * e5, hs * e6, hs * e7
                s0 = (abs(x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0 + x7 * kg0)
                      / (atol + rtol * (my0 if my0 > mz0 else mz0)))
                s1 = (abs(x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1 + x7 * kg1)
                      / (atol + rtol * (my1 if my1 > mz1 else mz1)))
                s2 = (abs(x1 * ka2 + x3 * kc2 + x4 * kd2 + x5 * ke2 + x6 * kf2 + x7 * kg2)
                      / (atol + rtol * (my2 if my2 > mz2 else mz2)))
                s3 = (abs(x1 * ka3 + x3 * kc3 + x4 * kd3 + x5 * ke3 + x6 * kf3 + x7 * kg3)
                      / (atol + rtol * (my3 if my3 > mz3 else mz3)))
                err = math.sqrt((s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3) / 4)

                if not err <= 1.0:  # a NaN or inf error is a rejection too
                    rejected += 1
                    q = 0.9 * err ** -0.2
                    h_step = hs * (q if q > 0.2 else 0.2)
                    continue
                t_new = t + hs
                if t_max - t_new <= tol:
                    t_new = t_max
                norm = mz0 * mz0 + mz1 * mz1 + mz2 * mz2 + mz3 * mz3
                drift = abs(norm - norm0)
                if drift > limit:
                    raise IntegrationError(
                        f"psi~ norm drift {drift:.3e} exceeds abort threshold", t_new
                    )
                if drift > max_drift:
                    max_drift = drift
                drift = abs((mz0 * mz0 + mz1 * mz1) * norm0 / norm - sector0)
                if drift > limit:
                    raise IntegrationError(f"p_S drift {drift:.3e} exceeds abort threshold", t_new)
                if drift > max_sector:
                    max_sector = drift
                below = False
                while times[n] <= t_new:  # samples in (t, t_new]
                    th = (times[n] - t) / hs
                    q = hs * th * th
                    x1 = hs * th * (1.0 + th * (d12 + th * (d13 + th * d14)))
                    x3 = q * (d32 + th * (d33 + th * d34))
                    x4 = q * (d42 + th * (d43 + th * d44))
                    x5 = q * (d52 + th * (d53 + th * d54))
                    x6 = q * (d62 + th * (d63 + th * d64))
                    x7 = q * (d72 + th * (d73 + th * d74))
                    o0 = y0 + x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0 + x7 * kg0
                    o1 = y1 + x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1 + x7 * kg1
                    o2 = y2 + x1 * ka2 + x3 * kc2 + x4 * kd2 + x5 * ke2 + x6 * kf2 + x7 * kg2
                    o3 = y3 + x1 * ka3 + x3 * kc3 + x4 * kd3 + x5 * ke3 + x6 * kf3 + x7 * kg3
                    m0, m1, m2, m3 = abs(o0), abs(o1), abs(o2), abs(o3)
                    c = math.sqrt(norm0 / (m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3))
                    o0, o1, o2, o3 = c * o0, c * o1, c * o2, c * o3
                    out.append((o0, o1, o2, o3))
                    n += 1
                    if v_stop is not None:
                        bn = (g0 * o0 + g1 * o1 + g2 * o2 + g3 * o3) / norm_d
                        r0, r1, r2, r3 = o0 - bn * p0, o1 - bn * p1, o2 - bn * p2, o3 - bn * p3
                        below = below or v_norms + norm_d * (
                            abs(r0) ** 2 + abs(r1) ** 2 + abs(r2) ** 2 + abs(r3) ** 2) < v_stop
                c = math.sqrt(norm0 / norm)
                y0, y1, y2, y3 = c * z0, c * z1, c * z2, c * z3
                my0, my1, my2, my3 = c * mz0, c * mz1, c * mz2, c * mz3
                c = c * c * c
                ka0, ka1, ka2, ka3 = c * kg0, c * kg1, c * kg2, c * kg3  # FSAL
                t = t_new
                steps.append(hs)
                q = 5.0 if err == 0.0 else 0.9 * err ** -0.2
                h_step = hs * (q if q < 5.0 else 5.0)
                if below:
                    break
    except (IntegrationError, ValueError) as exc:
        error = exc

    h_range = (min(steps), max(steps)) if steps else (None, None)
    evals = 1 + 6 * (len(steps) + rejected)
    stats = IntegratorStats(len(steps), rejected, evals, *h_range, max_drift, max_sector, len(y))
    return np.array(out, dtype=complex), stats, error


def _evolve(eig: tuple[np.ndarray, np.ndarray], rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """U(t) rho U(t)† for every t in times, U(t) = W diag(exp(-i lam t)) W†
    from the eigendecomposition (lam, W) of a constant Hamiltonian. Written in
    the eigenbasis W, the (j, k) entry of rho only picks up the phase
    exp(-i (lam_j - lam_k) t)."""
    lam, w = eig
    rho = w.conj().T @ rho @ w
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

    lam, w = _sector_eigh(h, (0.0, 1.0) if n_on else (0.0,))
    free = lam[0], w[0]
    states = np.empty((len(grid),) + y0.shape, dtype=complex)
    states[:, 1] = _evolve(free, y0[1], grid)
    start, t_start = y0[0], 0.0
    if n_on:
        driven = lam[1], w[1]
        states[:n_on, 0] = _evolve(driven, start, grid[:n_on])
        start, t_start = _evolve(driven, start, np.array([law.t0]))[0], law.t0
    states[n_on:, 0] = _evolve(free, start, grid[n_on:] - t_start)
    return _diagnose(h, law, grid, states, cfg.v_stop)
