"""Entanglement and convergence diagnostics.

Concurrence (Wootters closed form), distance to the maximally entangled
equator family the interaction-control loop converges to, exponential-rate
fits of the Lyapunov function, and peak/fluctuation analysis of concurrence
traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import dagger, kron, pauli
from .model import Basis, Z_PRODUCT

if TYPE_CHECKING:
    from .dynamics import Trajectory

_YY = np.real(kron(pauli("Y"), pauli("Y")))

#: Lyapunov values below this are numerical noise and excluded from rate fits.
V_FIT_FLOOR = 1e-12
#: A fit window whose ln V spreads by no more than this is flat to roundoff.
_FLAT_LOG_V = 1e-12
#: Concurrence samples within this of the maximum are on the peak.
_PEAK_TOL = 1e-8


def concurrence(rho: np.ndarray, basis: Basis = Z_PRODUCT) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix.

    The spin-flip conjugation is basis-dependent, so ``rho`` given in another
    coordinate system is mapped to the Z-product basis first, by T† rho T for its
    (d, 4) transform T. A stack of matrices (..., d, d) gives one value per matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    d = len(basis.transform)
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"concurrence needs a {d}x{d} density matrix, got {rho.shape}")
    rho_z = dagger(basis.transform) @ rho @ basis.transform
    m = rho_z @ _YY @ rho_z.conj() @ _YY
    lams = np.sqrt(np.clip(np.real(np.linalg.eigvals(m)), 0.0, None))
    lams = np.sort(lams, axis=-1)[..., ::-1]
    c = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return float(c) if rho.ndim == 2 else c


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
    fluctuation_amplitude is max - min of concurrence over the local extrema
    (including the window boundary samples) within a window of
    ``window_width`` centered on the last sample within 1e-8 of the
    maximum, so roundoff on a plateau cannot move the centre; for a monotone
    trace this reduces to the window's max - min.
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
    wmask = (t >= t[i_max] - half) & (t <= t[i_max] + half)
    idx = np.where(wmask)[0]
    candidates = {int(idx[0]), int(idx[-1])}
    for j in idx:
        if 0 < j < len(c) - 1:
            if (c[j] - c[j - 1]) * (c[j + 1] - c[j]) <= 0.0:
                candidates.add(int(j))
    values = c[sorted(candidates)]
    amplitude = float(np.max(values) - np.min(values))
    return PeakReport(t_first=t_first, c_max=c_max, fluctuation_amplitude=amplitude)
