"""Entanglement and convergence diagnostics.

Concurrence (Wootters: closed form for pure samples, eigenvalues for the rest),
distance to the maximally entangled equator family the interaction-control loop
converges to, exponential-rate fits of the Lyapunov function, and
peak/fluctuation analysis of concurrence traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import Basis, Z_PRODUCT

if TYPE_CHECKING:
    from .dynamics import Trajectory

_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.real(np.kron(_Y, _Y))

#: `concurrence` takes a sample as pure when its purity defect is below this times (Tr rho)^2.
_PURE_TOL = 1e-14
#: Lyapunov values below this are numerical noise and excluded from rate fits.
V_FIT_FLOOR = 1e-12
#: A fit window whose ln V spreads by no more than this is flat to roundoff.
_FLAT_LOG_V = 1e-12
#: Concurrence samples within this of the maximum are on the peak.
_PEAK_TOL = 1e-8


def spin_flip(basis: Basis = Z_PRODUCT) -> np.ndarray:
    """The spin flip S = T* (Y(x)Y) T^dagger of ``basis`` (T its transform), for which a
    pure two-qubit state psi in that basis has concurrence C = |psi^T S psi| (Wootters,
    PRL 80, 2245 (1998))."""
    return basis.transform.conj() @ _YY @ basis.transform.conj().T


def concurrence(rho: np.ndarray, basis: Basis = Z_PRODUCT) -> float | np.ndarray:
    """Wootters concurrence of two-qubit density matrices (PRL 80, 2245 (1998)).

    A stack (..., 4, 4) gives one value per matrix. A sample with purity defect
    |Tr rho^2 - (Tr rho)^2| < 1e-14 (Tr rho)^2, in any basis, is pure: rho = psi psi^dagger
    and C = |psi^T S psi| for the spin flip S = T* (Y(x)Y) T^dagger, T the 4x4 transform of
    ``basis``. It is read off the column x = rho e_k of the largest diagonal entry, which
    is psi conj(psi_k): C = |x^T S x| / rho_kk. Every other sample takes the general
    formula, one eigensolver call each: C = max(0, l1-l2-l3-l4) for the sorted roots l_i
    of the eigenvalues of rho_z (Y(x)Y) rho_z* (Y(x)Y), rho_z = T^dagger rho T. With the
    top eigenvalue p1 = 1 - eps of a unit-trace rho (eps <= the defect), the general
    value is within 4 (2 sqrt(eps) + eps) of p1 |psi^T S psi| by Weyl's inequality and
    the column form within 12 eps of it, so the two differ by at most 8e-7 here. On the
    figure1 runs they differ by at most 2.2e-8, the general formula's roundoff roots.
    Near product states the general formula loses accuracy: on a pure state it is off
    from 2|ad - bc| by about sqrt(eps/C), up to 3e-6 near C = 1e-6, as the three zero
    eigenvalues of the rank-one rho_z (Y(x)Y) rho_z* (Y(x)Y) are conditioned by 1/C.
    Both propagators take state vectors, and every sample of `propagate_exact`, evolved
    from psi0 psi0†, is pure, so no run takes that path, only a caller's mixed rho;
    `integrate` takes |psi^T S psi| on its state vectors (`spin_flip`).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 density matrix, got {rho.shape}")
    stack = rho.reshape(-1, 4, 4)
    diag = np.einsum("nii->ni", stack).real
    tr2 = diag.sum(axis=1) ** 2
    pure = abs(np.einsum("nij,nji->n", stack, stack).real - tr2) < _PURE_TOL * tr2
    c = np.empty(len(stack))
    x = stack[pure, :, diag[pure].argmax(axis=1)]
    c[pure] = abs(np.einsum("ni,ij,nj->n", x, spin_flip(basis), x)) / diag[pure].max(axis=1)
    if not pure.all():
        rho_z = basis.transform.conj().T @ stack[~pure] @ basis.transform
        m = rho_z @ _YY @ rho_z.conj() @ _YY
        lams = np.sqrt(np.clip(np.real(np.linalg.eigvals(m)), 0.0, None))
        lams = np.sort(lams, axis=-1)[..., ::-1]
        c[~pure] = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return float(c[0]) if rho.ndim == 2 else c.reshape(rho.shape[:-2])


def equator_state(alpha: float) -> np.ndarray:
    """A member of the maximally entangled family
    (|++> + e^{i alpha}|-->)/sqrt(2), as a density matrix in XProduct
    coordinates. alpha=0 is Phi+, alpha=pi is Phi-.
    """
    sigma = np.zeros((4, 4), dtype=complex)
    sigma[0, 0] = sigma[3, 3] = 0.5
    sigma[0, 3] = 0.5 * np.exp(-1j * alpha)
    sigma[3, 0] = 0.5 * np.exp(1j * alpha)
    return sigma


def lasalle_distance(rho: np.ndarray) -> tuple[float, float]:
    """Distance from ``rho`` (XProduct coordinates) to the equator family.

    Returns (dist, alpha): dist = sqrt(Tr[(rho-sigma)^2] / 2) to the nearest
    family member, alpha = arg(rho_41) its phase. The overlap with the family
    is maximized analytically by that phase. When rho_41 = 0 the phase is
    indeterminate: only rho_41 and rho_14 couple to it, so every member is
    equally far, dist is taken at alpha = 0 and alpha is returned as NaN.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"lasalle_distance needs a 4x4 density matrix, got {rho.shape}")

    r41 = complex(rho[3, 0])
    alpha = float(np.angle(r41)) if abs(r41) > 1e-14 else float("nan")
    delta = rho - equator_state(0.0 if math.isnan(alpha) else alpha)
    return math.sqrt(max(0.0, 0.5 * float(np.real(np.trace(delta @ delta))))), alpha


@dataclass(frozen=True)
class ConvergenceReport:
    """Exponential fit V ~ V0 * exp(-rate * t) over a window of a run."""

    rate: float
    fit_quality: float


def convergence_report(
    traj: "Trajectory", fit_window: tuple[float, float]
) -> ConvergenceReport:
    """Least-squares line fit to (t, ln V) over ``fit_window``.

    Samples with V <= V_FIT_FLOOR are excluded as numerical noise; fewer than
    10 usable samples is an error. rate is the negated slope; fit_quality is
    the R^2 of the line. A window where V is constant to roundoff (ln V
    spreads by at most 1e-12) has rate 0 and fit_quality 1.
    """
    t_lo, t_hi = fit_window
    span_eps = 1e-9 * max(1.0, abs(traj.t[-1]))
    if t_lo >= t_hi:
        raise ValueError(f"empty fit window ({t_lo}, {t_hi})")
    if t_lo < traj.t[0] - span_eps or t_hi > traj.t[-1] + span_eps:
        raise ValueError(
            f"fit window ({t_lo}, {t_hi}) outside trajectory span "
            f"({traj.t[0]:.6g}, {traj.t[-1]:.6g})"
        )
    mask = (traj.t >= t_lo) & (traj.t <= t_hi) & (traj.V > V_FIT_FLOOR)
    if int(mask.sum()) < 10:
        raise ValueError(
            f"only {int(mask.sum())} usable samples (V > {V_FIT_FLOOR:g}) in fit window"
        )
    ts = traj.t[mask]
    log_v = np.log(traj.V[mask])
    if np.ptp(log_v) <= _FLAT_LOG_V:
        return ConvergenceReport(rate=0.0, fit_quality=1.0)
    slope, intercept = np.polyfit(ts, log_v, 1)
    resid = log_v - (slope * ts + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_v - np.mean(log_v)) ** 2))
    return ConvergenceReport(rate=float(-slope), fit_quality=1.0 - ss_res / ss_tot)


@dataclass(frozen=True)
class PeakReport:
    """First threshold crossing and fluctuation size of a concurrence trace."""

    t_first: float | None
    c_max: float
    fluctuation_amplitude: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_max <= 1.0 + 1e-9:
            raise ValueError(f"c_max {self.c_max} outside [0, 1]")


def peak_report(
    traj: "Trajectory", threshold: float = 0.99, window_width: float = 10.0
) -> PeakReport:
    """Analyze the concurrence trace of a run.

    t_first is the first time concurrence reaches ``threshold``, linearly
    interpolated between samples (None if never reached).
    fluctuation_amplitude is max - min of concurrence over a window of
    ``window_width`` centered on the last sample within 1e-8 of the
    maximum, so roundoff on a plateau cannot move the centre. Both samples
    are local extrema or window boundaries, so this is the spread of the
    trace's extrema in the window.
    """
    t, c = traj.t, traj.concurrence
    c_max = float(np.max(c))
    i_max = int(np.nonzero(c >= c_max - _PEAK_TOL)[0][-1])

    t_first: float | None = None
    above = np.where(c >= threshold)[0]
    if len(above) > 0:
        i = int(above[0])
        if i == 0:
            t_first = float(t[0])
        else:
            frac = (threshold - c[i - 1]) / (c[i] - c[i - 1])
            t_first = float(t[i - 1] + frac * (t[i] - t[i - 1]))

    half = 0.5 * window_width
    window = c[(t >= t[i_max] - half) & (t <= t[i_max] + half)]
    amplitude = float(np.max(window) - np.min(window))
    return PeakReport(t_first=t_first, c_max=c_max, fluctuation_amplitude=amplitude)
