"""Closed-loop integration of the controlled state against its drifting
target, and exact open-loop propagation.

Both propagators take the initial state psi0 and target psi_d0 as unit
4-vectors in XProduct coordinates, and reject any other input with a
ValueError before any work (`_state_vectors`). Every pair is diagonalised
block by block on its two X(x)X parity sectors (`_sector_eigh`).

`integrate` takes feedback laws only. It steps the closed loop
dpsi/dt = -i (H0 + f H1) psi against the free target psi_d(t) = U0(t) psi_d0
as psi~ = W† U0(t)† psi, on the sectors the run reaches (`_frame`), and as
its real Bloch vector when that is one sector, with a written-out adaptive
Dormand-Prince 5(4) pair whose stages call `rhs` (`_dp5`). The samples are
read off a table of its accepted steps (`_dense_samples`), and the columns
are taken from them with no density matrix; rho and rho_d are formed only
when read. After each accepted step and at each sample the state is
projected back to its initial norm, and a step whose norm, or S-sector
norm, drifted past ABORT_FACTOR * TRACE_TOL aborts the run.

`propagate_exact` solves the open-loop laws, a geometric switch or none,
whose Hamiltonian is constant on each interval, by one eigendecomposition
per interval (`_evolve`) on rho0 = psi0 psi0† and rho_d0, and ends in a pass
over the (n, 2, 4, 4) state/target stack that checks the unitary invariants
at every sample (`_diagnose`).

The derivations and measurements behind both are in README, "Python API",
and its sections README, "The closed loop"; README, "The Bloch vector";
README, "The step table"; README, "The projection"; README, "Exact
open-loop propagation"; and README, "Column passes".
"""

from __future__ import annotations

import math
from bisect import bisect_right
from cmath import exp
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from math import cos, sin
from statistics import median

import numpy as np

from .control import ControlLaw, Geometric, Lyapunov, control_field, lyapunov_value
from .model import (
    SECTORS,
    X_PRODUCT,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    subspace_populations,
)
from . import metrics

NORM_TOL = 1e-12
TRACE_TOL = 1e-9
HERM_TOL = 1e-9
PURITY_TOL = 1e-6
EIGEN_FLOOR = -1e-8
ABORT_FACTOR = 10.0
# 64 u (u = 2^-53): `_frame` steps a parity sector where psi~ or psi_d~ weighs more.
_SECTOR_WEIGHT = 64 * 2.0**-53
# 128 u: the rate |lam_0 - lam_1| per unit of ||H0||_F up to which `integrate`'s stall
# rule takes a sector's rate for a rounded zero. The 2x2 eigh of a block B is backward
# stable: its eigenvalues are those of B + E with ||E||_2 <= c u ||B||_2, so by Weyl's
# inequality each is within c u ||B||_2 of the exact one, and a block with one double
# eigenvalue, a multiple of I, reads a rate of at most 2 c u ||B||_2 <= 2 c u ||H0||_F.
# Over 2e5 random blocks each eigenvalue was within 15 u ||B||_F (c <= 16 with margin);
# a multiple of I, as `hamiltonians`' zero block, reads exactly 0.
_SPLIT_ROUNDING = 128 * 2.0**-53
# With v_stop set, `_dp5` samples its new steps and looks for the cut every this many
# accepted steps. A look costs as much as about 5 steps, and up to this many steps may pass
# the cut; measured on figure4's runs, 64-256 are alike (BENCH_step_table.json, "v_stop").
_V_STOP_BATCH = 128

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
_DENSE_COLUMNS = np.array(_DENSE)[:, 1:].T[:, :, None]  # those of theta², theta³, theta⁴
# Floats of step-table entries per block of `_dense_samples` (112 KiB): its arrays stay
# below glibc's 128 KiB mmap threshold and reuse heap memory (in one pass the figure4
# runs took about 430 fresh-page faults each).
_DENSE_FLOATS = 14336


class IntegrationError(RuntimeError):
    """Raised when the integrator cannot continue (step underflow, or a norm
    drift or invariant violation beyond the abort threshold)."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t={t:.6g})")
        self.t = t


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive-step configuration; times are in units of 1/J.

    The stepper has no time constant of its own: `_dp5` takes its first
    trial step and its step-size floor from the sample interval, as
    sample_every / 10 and sample_every / 1e12, so a run scales with it.
    rel_tol and abs_tol bound each DP5(4) step's local error per amplitude
    of psi~, abs_tol + rel_tol |y_i|; `_dp5` maps them onto the axes of the
    Bloch vector that a one-sector run steps.
    """

    t_max: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    sample_every: float = 0.1
    v_stop: float | None = None

    def __post_init__(self) -> None:
        for name in ("t_max", "rel_tol", "abs_tol", "sample_every"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.v_stop is not None and not (math.isfinite(self.v_stop) and self.v_stop > 0):
            raise ValueError(f"v_stop must be positive and finite, got {self.v_stop}")


@dataclass(frozen=True)
class IntegratorStats:
    """How a DP5(4) run was stepped: accepted and rejected attempts, `rhs`
    evaluations (6 per attempt plus the first, under FSAL), the smallest,
    largest and median accepted step (None when no step was taken), the
    largest drift of the squared norm of psi~ (the length of its Bloch
    vector, on one sector) that an accepted step left
    before its projection (0 with no step), the same after it for its S
    sector, p_S (0 for one sector), and how many eigen-amplitudes of H0 the
    run stepped: 2 for one parity sector, 4 for both (`_frame`). A run cut
    at v_stop counts only its steps up to the one that passed the cut."""

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None
    h_median: float | None
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


def _state_vectors(psi0: np.ndarray, psi_d0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The initial state and target of either propagator as complex unit
    4-vectors. A ValueError for any other shape, a 4x4 matrix included, or a
    norm off 1 by more than NORM_TOL, a NaN norm included."""
    for name, v in (("psi0", psi0), ("psi_d0", psi_d0)):
        if np.shape(v) != (4,):
            raise ValueError(
                f"{name} has shape {np.shape(v)}: state and Hamiltonian dimensions do not "
                "match, a state is a 4-vector in XProduct coordinates"
            )
    vectors = np.asarray(psi0, dtype=complex), np.asarray(psi_d0, dtype=complex)
    for v in vectors:
        nrm = np.linalg.norm(v)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {float(nrm)!r} deviates from 1 beyond {NORM_TOL}")
    return vectors


def _sector_eigh(h: HamiltonianPair, fields: tuple = (0.0,)) -> tuple:
    """The eigendecompositions (lam, W) of H0 + f H1 for each f in fields,
    and their sector blocks V; every propagator diagonalises a pair here.
    The 2x2 blocks of every H0 + f H1 go through one batched eigh,
    (lam_s, V_s) for sector s, and W holds V_s on the XProduct rows
    SECTORS[s], in columns 2s and 2s + 1: the (k, 4) lam, ascending within
    each sector, the (k, 4, 4) W in XProduct coordinates and the
    (k, 2, 2, 2) V.
    """
    lam, v = np.linalg.eigh(h.h0 + np.multiply.outer(fields, h.h1))
    w = np.zeros((len(fields), 4, 4), dtype=complex)
    for s, rows in enumerate(SECTORS):
        w[:, rows, 2 * s:2 * s + 2] = v[:, s]
    return lam.reshape(-1, 4), w, v


def _frame(
    h: HamiltonianPair, kappa: float, psi0: np.ndarray, psi_d0: np.ndarray
) -> tuple[tuple, tuple]:
    """The interaction picture of H0 that a closed loop with the signed gain
    kappa steps in: ((lam, W), the stepped columns, the coefficients of `rhs`,
    conj(psi_d~)), and the state at t = 0 on those columns, psi~ = W† psi0,
    or its Bloch vector (`_bloch`) when they are one sector.

    (lam, W) is H0's eigendecomposition by `_sector_eigh`; selecting columns
    keeps both bit for bit. h = W† H1 W has one 2x2 block per sector,
    V_s† h1_s V_s. A sector is stepped where psi~ or psi_d~ = W† psi_d0 has a
    norm above _SECTOR_WEIGHT. conj(psi_d~) is a tuple of Python complex
    numbers, 2 or 4 wide. The coefficients are Python numbers for the width
    stepped, the signed gain last, so `rhs` reads no law object: on one
    sector the 7 floats (w, Re h01, Im h01, (h00 - h11)/2, d~), w the rate
    lam_2s - lam_2s+1 and d~ the Bloch vector of psi_d~, then 2 kappa; on
    both, for each sector i (lam_2s - lam_2s+1) and its block of h row by
    row, then conj(psi_d~), then -2j kappa (README, "The closed loop";
    README, "The Bloch vector").
    """
    (lam,), (w,), (v,) = _sector_eigh(h)
    h1 = v.conj().swapaxes(1, 2) @ h.h1 @ v  # V_s† h1_s V_s, sector by sector
    target, y = w.T @ psi_d0.conj(), w.conj().T @ psi0
    weight = np.linalg.norm(np.stack([y, target]).reshape(2, 2, 2), axis=2).max(axis=0)
    sectors = np.flatnonzero(weight > _SECTOR_WEIGHT)
    cols = (2 * sectors[:, None] + [0, 1]).ravel()
    target, y = (tuple(v[cols].tolist()) for v in (target, y))
    if len(sectors) == 1:
        (k,) = sectors
        (h00, h01), (_, h11) = h1[k].tolist()
        d = _bloch(*(g.conjugate() for g in target))
        coeffs = (float(lam[2 * k] - lam[2 * k + 1]), h01.real, h01.imag,
                  0.5 * (h00.real - h11.real), *d, 2 * kappa)
        return ((lam, w), cols, coeffs, target), _bloch(*y)
    coeffs = []
    for k in sectors:
        coeffs += [1j * float(lam[2 * k] - lam[2 * k + 1]), *h1[k].ravel().tolist()]
    return ((lam, w), cols, (*coeffs, *target, -2j * kappa), target), y


def _bloch(y0: complex, y1: complex) -> tuple[float, float, float]:
    """The Bloch vector (2 Re conj(y0) y1, 2 Im conj(y0) y1, |y0|² - |y1|²)
    of the two-level state (y0, y1); its length is |y0|² + |y1|²."""
    p = y0.conjugate() * y1
    return (2 * p.real, 2 * p.imag,
            (y0.real * y0.real + y0.imag * y0.imag) - (y1.real * y1.real + y1.imag * y1.imag))


def _from_bloch(r: np.ndarray) -> np.ndarray:
    """The two-level states psi~ = (y0, y1), one row each, whose Bloch
    vectors (`_bloch`) are the rows of the (n, 3) array r, up to a global
    phase: the larger amplitude, sqrt((|r| + |r_z|)/2), is taken real and
    positive (y0 where r_z >= 0), and the other is (r_x ± i r_y) / 2 over
    it, y1 = (r_x + i r_y) / (2 y0) or y0 = (r_x - i r_y) / (2 y1). No
    difference of nearly equal numbers is taken, so each amplitude keeps a
    relative accuracy of a few u, however small it is."""
    x, y, z = r.T
    big = np.sqrt(0.5 * (np.sqrt(x * x + y * y + z * z) + np.abs(z)))
    re, im = x / (2 * big), y / (2 * big)
    upper = z >= 0
    psi = np.empty((len(r), 2), dtype=complex)
    psi.real[:, 0], psi.imag[:, 0] = np.where(upper, big, re), np.where(upper, 0.0, -im)
    psi.real[:, 1], psi.imag[:, 1] = np.where(upper, re, big), np.where(upper, im, 0.0)
    return psi


def rhs(
    coeffs: tuple, t: float, y0: complex, y1: complex, y2: complex, y3: complex | None = None
) -> tuple:
    """The derivative at time t of the stepped state, passed as its entries,
    `rhs(coeffs, t, *state)`: the Bloch vector r~ of psi~ on one parity
    sector, 3 Python floats, or psi~ = W† U0(t)† psi on both, 4 Python
    complex numbers, with coeffs the `_frame` numbers of that width. The
    width is the arity, and the result has it.

    Only the control term is left, dpsi~/dt = -i f E h E* psi~ with
    E = diag(exp(i lam t)), one phase factor r per sector, and
    f = 2 kappa Im(<psi_d~|E h E* psi~> conj(<psi_d~|psi~>)); on one sector
    r~' = 2 f (n x r~) with f = kappa n.(r~ x d~), about 30 float operations
    and one cos/sin pair, h01 r formed from them as the complex product forms
    it (README, "The closed loop"; README, "The Bloch vector"). The trace is
    imaginary by construction, so there is no realness to check.
    """
    if y3 is None:
        w, hr, hi, n2, d0, d1, d2, gain = coeffs
        th = w * t
        c, s = cos(th), sin(th)
        n0, m1 = hr * c - hi * s, hr * s + hi * c  # h01 r = n0 + i m1, n = (n0, -m1, n2)
        g = gain * (
            n0 * (y1 * d2 - y2 * d1) - m1 * (y2 * d0 - y0 * d2) + n2 * (y0 * d1 - y1 * d0))
        return g * (-m1 * y2 - n2 * y1), g * (n2 * y0 - n0 * y2), g * (n0 * y1 + m1 * y0)
    r0, h00, h01, h10, h11, r1, h22, h23, h32, h33, g0, g1, g2, g3, gain = coeffs
    e0, e1 = exp(r0 * t), exp(r1 * t)
    v0 = h00 * y0 + h01 * e0 * y1
    v1 = h10 / e0 * y0 + h11 * y1
    v2 = h22 * y2 + h23 * e1 * y3
    v3 = h32 / e1 * y2 + h33 * y3
    a = g0 * v0 + g1 * v1 + g2 * v2 + g3 * v3
    b = g0 * y0 + g1 * y1 + g2 * y2 + g3 * y3
    m = gain * (a * b.conjugate()).imag
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
    n_on: int,
    t: np.ndarray,
    states: np.ndarray,
    v_stop: float | None,
) -> Trajectory:
    """The pass `propagate_exact` ends in, over the (n, 2, d, d) state/target
    stack at the times t, in this order. `propagate_exact` fills the stack
    from psi0 psi0† and psi_d0 psi_d0†; the pass itself takes any matrices,
    so the tests reach every invariant check with a bad stack:

    1. with v_stop set, the run is cut at the first sample after t = 0 whose
       V is below v_stop, which it keeps;
    2. the invariants are checked (`_check_invariants`) against the purities
       of the initial stack, so the first bad sample aborts the run;
    3. the field column is 1.0 at the first n_on samples, those before a
       geometric switch, and 0.0 from there on;
    4. V, concurrence, fidelity, p_S and purity are taken for every sample
       at once, in XProduct coordinates.

    `integrate` takes its columns from psi~ instead, stall flag included.
    """
    v = lyapunov_value(states[:, 0], states[:, 1])
    below = np.flatnonzero(v[1:] < v_stop) if v_stop is not None else ()
    n = int(below[0]) + 2 if len(below) else len(t)
    t, states, v = t[:n], states[:n], v[:n]
    _check_invariants(t[1:], states[1:], _purity(states[0]))
    rho, rho_d = states[:, 0], states[:, 1]
    f = np.zeros(n)
    f[:n_on] = 1.0
    c = metrics.concurrence(rho, X_PRODUCT)
    p_s = subspace_populations(rho)[0]
    fid, pur = _trace_products(rho, rho_d), _trace_products(rho, rho)
    meta = TrajectoryMetadata(h.params, h.paradigm, law, False)
    return Trajectory(t, f, v, c, fid, p_s, pur, meta, lambda: rho, lambda: rho_d)


def integrate(
    h: HamiltonianPair,
    law: ControlLaw,
    psi0: np.ndarray,
    psi_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate the closed loop of a feedback law over [0, t_max] and sample it.

    Takes the initial state psi0 and target psi_d0 as unit 4-vectors in
    XProduct coordinates (`_state_vectors`), and rejects an open-loop law,
    whose Hamiltonian is constant on each interval, with a ValueError naming
    `propagate_exact`. Steps psi~, or on one sector its Bloch vector
    (`_frame`, `rhs`, `_dp5`), and takes every column from its samples and
    the constant psi_d~ in a few row-wise operations, with no invariant
    check (README, "Column passes"): V by `_lyapunov`, p_S, and on the lab
    vectors psi = W diag(exp(-i (lam - lam_0) t)) psi~ and psi_d the field
    `control_field`, concurrence, fidelity and purity. With v_stop set the
    samples end at the first one after t = 0 whose V is below v_stop
    (`_dp5`). A run is stalled when it starts off target (V > 1e-12), V
    stays within 64 u of V(0), and it spans a period 2 pi/w of each stepped
    sector whose rate w is above _SPLIT_ROUNDING ||H0||_F (README,
    "Output"). The Trajectory's rho = psi psi† and rho_d, the free evolution
    of psi_d0 psi_d0† by `_evolve`, are formed only when read.
    """
    if not isinstance(law, Lyapunov):
        raise ValueError("open-loop laws have a constant Hamiltonian; use propagate_exact")
    psi0, psi_d0 = _state_vectors(psi0, psi_d0)
    grid = _sample_grid(cfg)
    (free, cols, coeffs, target), y = _frame(h, law.kappa, psi0, psi_d0)
    target = np.array(target)  # conj(psi_d~)
    samples, stats, error = _dp5(coeffs, target, y, grid, cfg)
    if error is not None:
        raise error
    t = grid[: len(samples)]
    v = _lyapunov(samples, target)

    lam, w = free[0][cols], free[1][:, cols]
    # Phases relative to the first stepped column's lam, a global phase psi psi† drops:
    # its row and column of rho then carry the phases `_evolve` gives the target.
    phases = np.exp(np.multiply.outer(t, -1j * (lam - lam[0])))
    psi, psi_d = (samples * phases) @ w.T, (target.conj() * phases) @ w.T
    c = np.abs(((psi @ metrics.spin_flip(X_PRODUCT)) * psi).sum(axis=1))
    overlap = (psi_d.conj() * psi).sum(axis=1)
    fid = overlap.real**2 + overlap.imag**2
    f = control_field(psi, psi_d, h.h1, law.kappa)
    p_s = _sq_norm(samples[:, cols < 2])
    rates = np.abs(lam[::2] - lam[1::2])
    spanned = (t[-1] * rates >= 2 * math.pi) | (rates <= _SPLIT_ROUNDING * np.linalg.norm(h.h0))
    stalled = bool(v[0] > 1e-12 and np.max(np.abs(v - v[0])) <= 64 * 2.0**-53 and spanned.all())
    meta = TrajectoryMetadata(h.params, h.paradigm, law, stalled, stats)
    return Trajectory(
        t, f, v, c, fid, p_s, _sq_norm(psi) ** 2, meta,
        lambda: psi[:, :, None] * psi[:, None, :].conj(),
        lambda: _evolve(free, np.outer(psi_d0, psi_d0.conj()), t),
    )


def _lyapunov(samples: np.ndarray, target: np.ndarray) -> np.ndarray:
    """V for each row of samples of psi~ against the constant psi_d~, target
    holding conj(psi_d~): with b = <psi_d~|psi~> and squared norms N and
    N_d, V = (N - N_d)²/2 + N_d ||psi~ - psi_d~ b/N_d||² (README, "Column
    passes"). Every operation is elementwise, so a row's V does not depend
    on the rows beside it, and the V that `_dp5` cuts a run at is its V
    column's."""
    b = samples[:, 0] * target[0]
    for j in range(1, len(target)):
        b = b + samples[:, j] * target[j]
    norm, norm_d = _sq_norm(samples), _sq_norm(target)
    v = 0.5 * (norm - norm_d) ** 2 + norm_d * _sq_norm(
        samples - np.multiply.outer(b / norm_d, target.conj())
    )
    return v


def _sq_norm(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a complex array, or of a complex vector."""
    return (rows.real * rows.real + rows.imag * rows.imag).sum(axis=-1)


def _dp5(
    coeffs: tuple, target: np.ndarray, y: tuple, grid: np.ndarray, cfg: IntegratorConfig
) -> tuple[np.ndarray, IntegratorStats, Exception | None]:
    """Step the state y from t = 0 to t_max with the adaptive DP5(4) pair,
    then sample it. coeffs are `_frame`'s, and target is conj(psi_d~) as an
    array, which the v_stop looks read. One loop steps either width: each
    attempt is written out over the 3 components of a Bloch vector r~ or
    the 4 amplitudes of psi~, with no numpy call inside it, and each width
    takes its own error norm, norm, row and projection; the step choice,
    the checks, the step table and the looks are the loop's. Every stage is
    the module's `rhs(coeffs, t, *state)`, 6 calls per attempt and one for
    the first. An attempt whose error is NaN, or overflows to inf, is
    rejected.

    The error norm maps the tolerances atol + rtol |y_i| of each amplitude
    (`IntegratorConfig`): over psi~, the RMS over its 4 amplitudes against
    the larger |y_i| of the old and new state; over r~, the RMS over its 3
    components against 2 atol + rtol |r~_perp| for each transverse one and
    2 (atol + rtol |r~_z|) for the axial one, taking the larger |r~_perp|
    and |r~_z| of the two states (README, "The Bloch vector"). After each
    accepted step the state is scaled back to its initial squared norm N0,
    by c = sqrt(N0/N) on psi~ and c = N0/|r~| on r~, and the FSAL stage by
    c³ and c². A step whose N, or the squared norm of the S sector, the
    first two of 4 amplitudes, drifted by more than ABORT_FACTOR * TRACE_TOL
    aborts the run (README, "The projection"). The last step ends at t_max;
    one that ends within 1e-10 t_max of it ends there.

    An accepted step that passes sample times appends a row to the step
    table: (t, h, the index in grid past its last sample) to spans, and
    (y, k1, k3-k7) to table. `_dense_samples` reads the samples off it, and
    `_from_bloch` turns a Bloch sample back into psi~. With v_stop set, the
    rows stored since the last look are sampled every _V_STOP_BATCH
    accepted steps, and once more when stepping ends or fails. At the first
    sample after t = 0 with V < v_stop the run is cut back to the step that
    passed it: its samples end there, and its IntegratorStats and error are
    those of the run stopped after that step (README, "The step table").

    Returns the (n, 2 or 4) samples of psi~ at the first n times of grid,
    the run's IntegratorStats, and the error that ended it early (or None).
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), a6 = _A
    a61, a62, a63, a64, a65 = a6
    c2, c3, c4, c5 = _NODES
    b1, b3, b4, b5, b6 = _B5
    e1, e3, e4, e5, e6, e7 = _ERR
    atol, rtol, v_stop, t_max = cfg.abs_tol, cfg.rel_tol, cfg.v_stop, cfg.t_max
    tol = 1e-10 * t_max
    limit = ABORT_FACTOR * TRACE_TOL
    bloch = len(y) == 3
    if bloch:
        (y0, y1, y2), (ka0, ka1, ka2) = y, rhs(coeffs, 0.0, *y)
        norm0 = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
        atol2, rtol2 = 2 * atol, 2 * rtol
        pt, pz = y0 * y0 + y1 * y1, abs(y2)  # |r~_perp|² and |r~_z|
    else:
        (y0, y1, y2, y3), (ka0, ka1, ka2, ka3) = y, rhs(coeffs, 0.0, *y)
        my0, my1, my2, my3 = abs(y0), abs(y1), abs(y2), abs(y3)
        norm0 = my0 * my0 + my1 * my1 + my2 * my2 + my3 * my3
        sector0 = my0 * my0 + my1 * my1  # the S sector's squared norm
    times = grid.tolist() + [math.inf]  # the sentinel ends every sample search
    # The step table, end to end: each row's (t, h, n) in spans, (y, k1, k3-k7) in
    # table. Apart, the two convert to numpy in about half the time of one mixed list.
    # A step that aborts may store its table row and no spans row: looks read spans' rows.
    spans, table = [], []
    stride = 7 * len(y)
    n = 1  # the index in times of the next sample
    steps = []  # accepted step sizes
    rejected = 0
    max_drift = max_sector = sector = 0.0
    # The samples of the rows looked at, and how many rows those are; under
    # v_stop, each row's (accepted, rejected, max_drift, max_sector).
    first_row = np.array([y], dtype=float if bloch else complex)
    blocks, seen, marks = [_from_bloch(first_row) if bloch else first_row], 0, []

    def look() -> int | None:
        """Sample the rows stored since the last look. Under v_stop, the
        index of the row that passed the first sample below it, where the
        samples then end, or None."""
        nonlocal seen
        start, first, seen = seen, spans[3 * seen - 1] if seen else 1, len(spans) // 3
        if seen == start:
            return None
        block = _dense_samples(
            spans[3 * start:], table[stride * start:stride * seen], grid, first, norm0)
        if bloch:
            block = _from_bloch(block)
        below = () if v_stop is None else np.flatnonzero(
            _lyapunov(block, target) < v_stop)
        blocks.append(block[: below[0] + 1] if len(below) else block)
        if len(below):
            return start + bisect_right(spans[3 * start + 2:: 3], first + below[0])
        return None

    t = 0.0
    h_step, h_floor = cfg.sample_every / 10, cfg.sample_every / 1e12
    error = cut = None
    try:
        while t_max - t > tol:
            hs = t_max - t
            if h_step < hs:
                hs = h_step
            if hs < h_floor:
                last = f"h={steps[-1]:.3e} ending at t={t:.6g}" if steps else "none"
                raise IntegrationError(
                    f"step size underflow (h={hs:.3e}; last accepted step {last})", t
                )
            t_new = t + hs
            if t_max - t_new <= tol:
                t_new = t_max
            passes = times[n] <= t_new  # the step passes the samples in (t, t_new]

            # One embedded DP5(4) attempt: stages ka..kg, new state z, its error norm
            # err and step factor q; if accepted, its norm, its S-sector drift, its row
            # when it passes a sample, and the projection.
            if bloch:
                x1 = hs * a21
                kb0, kb1, kb2 = rhs(coeffs, t + c2 * hs,
                                    y0 + x1 * ka0, y1 + x1 * ka1, y2 + x1 * ka2)
                x1, x2 = hs * a31, hs * a32
                kc0, kc1, kc2 = rhs(coeffs, t + c3 * hs,
                                    y0 + x1 * ka0 + x2 * kb0,
                                    y1 + x1 * ka1 + x2 * kb1,
                                    y2 + x1 * ka2 + x2 * kb2)
                x1, x2, x3 = hs * a41, hs * a42, hs * a43
                kd0, kd1, kd2 = rhs(coeffs, t + c4 * hs,
                                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0,
                                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1,
                                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2)
                x1, x2, x3, x4 = hs * a51, hs * a52, hs * a53, hs * a54
                ke0, ke1, ke2 = rhs(coeffs, t + c5 * hs,
                                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0,
                                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1,
                                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2 + x4 * kd2)
                x1, x2, x3, x4, x5 = hs * a61, hs * a62, hs * a63, hs * a64, hs * a65
                kf0, kf1, kf2 = rhs(coeffs, t + hs,
                                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0 + x5 * ke0,
                                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1 + x5 * ke1,
                                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2 + x4 * kd2 + x5 * ke2)
                x1, x3, x4, x5, x6 = hs * b1, hs * b3, hs * b4, hs * b5, hs * b6
                z0 = y0 + x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0
                z1 = y1 + x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1
                z2 = y2 + x1 * ka2 + x3 * kc2 + x4 * kd2 + x5 * ke2 + x6 * kf2
                kg0, kg1, kg2 = rhs(coeffs, t + hs, z0, z1, z2)
                qt, qz = z0 * z0 + z1 * z1, abs(z2)
                x1, x3, x4, x5, x6, x7 = hs * e1, hs * e3, hs * e4, hs * e5, hs * e6, hs * e7
                st = atol2 + rtol * math.sqrt(pt if pt > qt else qt)
                s0 = (x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0 + x7 * kg0) / st
                s1 = (x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1 + x7 * kg1) / st
                s2 = ((x1 * ka2 + x3 * kc2 + x4 * kd2 + x5 * ke2 + x6 * kf2 + x7 * kg2)
                      / (atol2 + rtol2 * (pz if pz > qz else qz)))
                err = (s0 * s0 + s1 * s1 + s2 * s2) / 3  # the squared error norm
                q = 5.0 if err == 0.0 else 0.9 * err ** -0.1
                if err <= 1.0:
                    norm = math.sqrt(qt + z2 * z2)
                    if passes:
                        table.extend((y0, y1, y2, ka0, ka1, ka2, kc0, kc1, kc2, kd0, kd1, kd2,
                                      ke0, ke1, ke2, kf0, kf1, kf2, kg0, kg1, kg2))
                    c = norm0 / norm
                    y0, y1, y2 = c * z0, c * z1, c * z2
                    pt, pz = c * c * qt, c * qz
                    c = c * c
                    ka0, ka1, ka2 = c * kg0, c * kg1, c * kg2  # FSAL
            else:
                x1 = hs * a21
                kb0, kb1, kb2, kb3 = rhs(coeffs, t + c2 * hs, y0 + x1 * ka0, y1 + x1 * ka1,
                                         y2 + x1 * ka2, y3 + x1 * ka3)
                x1, x2 = hs * a31, hs * a32
                kc0, kc1, kc2, kc3 = rhs(coeffs, t + c3 * hs,
                                         y0 + x1 * ka0 + x2 * kb0,
                                         y1 + x1 * ka1 + x2 * kb1,
                                         y2 + x1 * ka2 + x2 * kb2,
                                         y3 + x1 * ka3 + x2 * kb3)
                x1, x2, x3 = hs * a41, hs * a42, hs * a43
                kd0, kd1, kd2, kd3 = rhs(coeffs, t + c4 * hs,
                                         y0 + x1 * ka0 + x2 * kb0 + x3 * kc0,
                                         y1 + x1 * ka1 + x2 * kb1 + x3 * kc1,
                                         y2 + x1 * ka2 + x2 * kb2 + x3 * kc2,
                                         y3 + x1 * ka3 + x2 * kb3 + x3 * kc3)
                x1, x2, x3, x4 = hs * a51, hs * a52, hs * a53, hs * a54
                ke0, ke1, ke2, ke3 = rhs(coeffs, t + c5 * hs,
                                         y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0,
                                         y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1,
                                         y2 + x1 * ka2 + x2 * kb2 + x3 * kc2 + x4 * kd2,
                                         y3 + x1 * ka3 + x2 * kb3 + x3 * kc3 + x4 * kd3)
                x1, x2, x3, x4, x5 = hs * a61, hs * a62, hs * a63, hs * a64, hs * a65
                kf0, kf1, kf2, kf3 = rhs(
                    coeffs, t + hs,
                    y0 + x1 * ka0 + x2 * kb0 + x3 * kc0 + x4 * kd0 + x5 * ke0,
                    y1 + x1 * ka1 + x2 * kb1 + x3 * kc1 + x4 * kd1 + x5 * ke1,
                    y2 + x1 * ka2 + x2 * kb2 + x3 * kc2 + x4 * kd2 + x5 * ke2,
                    y3 + x1 * ka3 + x2 * kb3 + x3 * kc3 + x4 * kd3 + x5 * ke3)
                x1, x3, x4, x5, x6 = hs * b1, hs * b3, hs * b4, hs * b5, hs * b6
                z0 = y0 + x1 * ka0 + x3 * kc0 + x4 * kd0 + x5 * ke0 + x6 * kf0
                z1 = y1 + x1 * ka1 + x3 * kc1 + x4 * kd1 + x5 * ke1 + x6 * kf1
                z2 = y2 + x1 * ka2 + x3 * kc2 + x4 * kd2 + x5 * ke2 + x6 * kf2
                z3 = y3 + x1 * ka3 + x3 * kc3 + x4 * kd3 + x5 * ke3 + x6 * kf3
                kg0, kg1, kg2, kg3 = rhs(coeffs, t + hs, z0, z1, z2, z3)
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
                q = 5.0 if err == 0.0 else 0.9 * err ** -0.2
                if err <= 1.0:
                    norm = mz0 * mz0 + mz1 * mz1 + mz2 * mz2 + mz3 * mz3
                    sector = abs((mz0 * mz0 + mz1 * mz1) * norm0 / norm - sector0)
                    if passes:
                        table.extend((y0, y1, y2, y3, ka0, ka1, ka2, ka3, kc0, kc1, kc2, kc3,
                                      kd0, kd1, kd2, kd3, ke0, ke1, ke2, ke3, kf0, kf1, kf2,
                                      kf3, kg0, kg1, kg2, kg3))
                    c = math.sqrt(norm0 / norm)
                    y0, y1, y2, y3 = c * z0, c * z1, c * z2, c * z3
                    my0, my1, my2, my3 = c * mz0, c * mz1, c * mz2, c * mz3
                    c = c * c * c
                    ka0, ka1, ka2, ka3 = c * kg0, c * kg1, c * kg2, c * kg3  # FSAL

            if not err <= 1.0:  # a NaN or inf error is a rejection too
                rejected += 1
                h_step = hs * (q if q > 0.2 else 0.2)
                continue
            drift = abs(norm - norm0)
            if drift > limit:
                raise IntegrationError(
                    f"psi~ norm drift {drift:.3e} exceeds abort threshold", t_new)
            if drift > max_drift:
                max_drift = drift
            if sector > limit:
                raise IntegrationError(f"p_S drift {sector:.3e} exceeds abort threshold", t_new)
            if sector > max_sector:
                max_sector = sector
            if passes:
                n = bisect_right(times, t_new, n)
                spans.extend((t, hs, n))
                if v_stop is not None:
                    marks.append((len(steps) + 1, rejected, max_drift, max_sector))
            t = t_new
            steps.append(hs)
            h_step = hs * (q if q < 5.0 else 5.0)
            if v_stop is not None and len(steps) % _V_STOP_BATCH == 0:
                if (cut := look()) is not None:
                    break
    except (IntegrationError, ValueError) as exc:
        error = exc

    if cut is None:
        cut = look()
    if cut is not None:
        error = None
        accepted, rejected, max_drift, max_sector = marks[cut]
        del steps[accepted:]
    h_range = (min(steps), max(steps), median(steps)) if steps else (None, None, None)
    evals = 1 + 6 * (len(steps) + rejected)
    stats = IntegratorStats(len(steps), rejected, evals, *h_range, max_drift, max_sector,
                            len(target))
    return np.concatenate(blocks), stats, error


def _dense_samples(
    spans: list, table: list, grid: np.ndarray, first: int, norm0: float
) -> np.ndarray:
    """The samples of the stepped state at grid[first:end] that the rows of
    a `_dp5` step table pass, scaled to the squared norm norm0 of psi~, one
    row per sample: real rows of the Bloch vector r~ when the table holds 3
    floats an entry, complex rows of psi~ when it holds complex numbers.
    spans holds each row's (t, h, n) and table its (y, k1, k3-k7), end to
    end; a row covers the samples from the previous row's n (first, for the
    first row) to its own, and end is the last row's n.

    The sample at theta = (s - t)/h is y + sum_i x_i k_i (`_DENSE`), scaled
    as `_dp5` projects, bit for bit that formula in scalar Python arithmetic
    (`tests/oracles.py`) but for the sign of a zero part, in blocks of
    _DENSE_FLOATS step-table floats (README, "The step table").
    """
    span = np.fromiter(spans, float, len(spans)).reshape(-1, 3)
    ends = span[:, 2].astype(np.intp)
    which = np.repeat(np.arange(len(span)), np.diff(ends, prepend=first))  # row of each sample
    stride = len(table) // len(span)
    width, real = stride // 7, stride == 21
    parts = 1 if real else 2
    dtype = float if real else complex
    out = np.empty((len(which), width), dtype=dtype)
    d2, d3, d4 = _DENSE_COLUMNS
    size = _DENSE_FLOATS // (parts * stride)
    for a in range(0, len(which), size):
        rows = which[a:a + size]
        lo, hi = rows[0], rows[-1] + 1
        t, h = span[rows, 0], span[rows, 1]
        th = (grid[first + a:first + a + len(rows)] - t) / h
        poly = d2 + th * (d3 + th * d4)
        ht = h * th
        x = ht * th * poly  # the weights of k1 and k3-k7
        x[0] = ht * (1.0 + th * poly[0])
        k = np.fromiter(table[stride * lo:stride * hi], dtype, stride * (hi - lo))
        k = k.reshape(hi - lo, 7, width)[rows - lo]
        # (entry, part, component, sample): the state, then k1 and k3-k7; a real
        # entry has one part, a complex one its real and imaginary parts.
        k = np.ascontiguousarray(
            k.view(float).reshape(k.shape + (parts,)).transpose(1, 3, 2, 0))
        terms = x[:, None, None] * k[1:]
        y = k[0] + terms[0]
        for term in terms[1:]:
            y += term
        if real:
            (y,) = y
            sq = y[0] * y[0]
            for yj in y[1:]:
                sq += yj * yj
            out[a:a + size] = ((norm0 / np.sqrt(sq)) * y).T
        else:
            m = np.hypot(*y)
            sq = m[0] * m[0]
            for mj in m[1:]:
                sq += mj * mj
            y = np.sqrt(norm0 / sq) * y
            out.real[a:a + size], out.imag[a:a + size] = y[0].T, y[1].T
    return out


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
    psi0: np.ndarray,
    psi_d0: np.ndarray,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Exact samples of an open-loop run (a geometric law or none).

    Takes the arguments of `integrate`, unit state vectors included, and
    returns the same Trajectory, invariant aborts and v_stop cut included,
    without a Runge-Kutta step: the Hamiltonian is H0 + H1 at the n_on
    samples before a geometric switch time t0 and H0 from t0 on (a sample
    at exactly t0 is already off), so each interval takes one
    eigendecomposition, the state at t >= t0 is the free evolution of the
    state at t0, and n_on also sets the f column. It evolves
    rho0 = psi0 psi0† and rho_d0 = psi_d0 psi_d0† by `_evolve`.
    """
    if isinstance(law, Lyapunov):
        raise ValueError("feedback laws have no constant Hamiltonian; use integrate")
    psi0, psi_d0 = _state_vectors(psi0, psi_d0)
    y0 = np.stack([np.outer(v, v.conj()) for v in (psi0, psi_d0)])
    grid = _sample_grid(cfg)
    # The field is on at the samples before t0.
    n_on = int(np.searchsorted(grid, law.t0)) if isinstance(law, Geometric) else 0

    lam, w, _ = _sector_eigh(h, (0.0, 1.0) if n_on else (0.0,))
    free = lam[0], w[0]
    states = np.empty((len(grid),) + y0.shape, dtype=complex)
    states[:, 1] = _evolve(free, y0[1], grid)
    start, t_start = y0[0], 0.0
    if n_on:
        driven = lam[1], w[1]
        states[:n_on, 0] = _evolve(driven, start, grid[:n_on])
        start, t_start = _evolve(driven, start, np.array([law.t0]))[0], law.t0
    states[n_on:, 0] = _evolve(free, start, grid[n_on:] - t_start)
    return _diagnose(h, law, n_on, grid, states, cfg.v_stop)
