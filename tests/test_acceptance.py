"""End-to-end acceptance gate: ten numbered criteria, one test each.

Every test prints the measured quantities next to the window it asserts, so a
red line documents the measured value alongside the required one. The shared
preset runs come from session fixtures in conftest.py; criteria that need
non-preset runs (timed runs, tightened tolerances, jitter sweeps) integrate
their own scenarios.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from bellsteer.control import Geometric, Lyapunov
from bellsteer.dynamics import (
    HERM_TOL,
    IntegratorConfig,
    PURITY_TOL,
    TRACE_TOL,
    integrate,
    propagate_exact,
)
from bellsteer.experiments import (
    STATE_LITERALS,
    SweepConfig,
    preset_scenarios,
    run_scenario,
    run_sweep,
)
from bellsteer.metrics import concurrence, lasalle_distance
from bellsteer.model import (
    ModelParams,
    Paradigm,
    X_PRODUCT,
    hamiltonians,
)
from oracles import (
    f_bound,
    geometric_evolve,
    model_matrices,
    outer,
    state_vector,
    vdot_identity_check,
)


def _log_linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Decay rate and R-squared of a straight-line fit to ln(y)."""
    ln = np.log(y)
    slope, intercept = np.polyfit(t, ln, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((ln - pred) ** 2))
    ss_tot = float(np.sum((ln - np.mean(ln)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return -float(slope), r2


def test_criterion_01_geometric_timing():
    # Constant field B=0.1 from |00>: first crossing of concurrence 0.99 must
    # land in 157 +/- 8 time units, and the run itself must finish in < 10 s.
    cfg = dict(preset_scenarios("figure1"))["figure1_B0.1"]
    start = time.perf_counter()
    _, report = run_scenario(cfg)
    runtime = time.perf_counter() - start
    t_first = report["peak"]["t_first"]
    print(
        f"criterion 1: t_first(B=0.1, threshold 0.99) = {t_first:.2f} "
        f"(required window [149, 165]), runtime = {runtime:.2f} s (< 10 s)"
    )
    assert runtime < 10.0
    assert t_first is not None
    assert 157.0 - 8.0 <= t_first <= 157.0 + 8.0


def test_criterion_02_geometric_speedup(figure1_runs):
    # B=0.4 must reach the threshold in about one eighth of the B=0.1 time.
    t_first = figure1_runs["figure1_B0.4"][1]["peak"]["t_first"]
    target = 157.0 / 8.0
    print(
        f"criterion 2: t_first(B=0.4) = {t_first:.3f} "
        f"(required within 25% of {target:.3f}: [{0.75 * target:.2f}, {1.25 * target:.2f}])"
    )
    assert t_first is not None
    assert 0.75 * target <= t_first <= 1.25 * target


def test_criterion_03_fluctuation_ratio(figure1_runs):
    rep01 = figure1_runs["figure1_B0.1"][1]["peak"]
    rep04 = figure1_runs["figure1_B0.4"][1]["peak"]
    ratio = rep04["fluctuation_amplitude"] / rep01["fluctuation_amplitude"]
    rel = rep01["fluctuation_amplitude"] / rep01["c_max"]
    print(
        f"criterion 3: amplitude ratio B0.4/B0.1 = {ratio:.2f} (required [7.5, 30]); "
        f"B=0.1 amplitude = {100 * rel:.3f}% of peak (required 1% within x3)"
    )
    assert 0.01 / 3.0 <= rel <= 0.01 * 3.0
    assert 7.5 <= ratio <= 30.0


def test_criterion_04_lyapunov_descent(lyapunov_runs):
    # V never increases beyond 1e-8 slack on any Lyapunov preset run, and the
    # analytic descent identity dV/dt = -f * Tr(rho_d [-iH1, rho]) matches a
    # finite-difference derivative at 100 randomly chosen trajectory points.
    runs = sorted(lyapunov_runs.items())
    for label, (traj, _) in runs:
        max_rise = float(np.max(np.diff(traj.V)))
        print(f"criterion 4: {label} max V increase = {max_rise:.3g} (slack 1e-8)")
        assert max_rise <= 1e-8, label

    configs = dict(preset_scenarios("figure2") + preset_scenarios("figure3"))
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        label, (traj, _) = runs[int(rng.integers(len(runs)))]
        i = int(rng.integers(len(traj)))
        cfg = configs[label]
        h = hamiltonians(cfg.model, cfg.paradigm)
        psi, psi_d = state_vector(traj.rho[i]), state_vector(traj.rho_d[i])
        analytic, numeric = vdot_identity_check(psi, psi_d, h, cfg.law)
        tol = max(1e-6, 1e-3 * abs(analytic))
        err = abs(analytic - numeric)
        worst = max(worst, err)
        assert err <= tol, f"{label} sample {i}: analytic {analytic}, numeric {numeric}"
    print(f"criterion 4: worst |analytic - numeric| dV/dt over 100 points = {worst:.3g}")


def test_criterion_05_local_convergence(figure2_runs):
    rates = {}
    for kappa in ("0.5", "1", "2"):
        conv = figure2_runs[f"figure2_k{kappa}"][1]["convergence"]
        assert conv is not None and "rate" in conv, kappa
        rates[kappa] = conv["rate"]
    traj, report = figure2_runs["figure2_k1"]
    r2 = report["convergence"]["fit_quality"]
    print(
        f"criterion 5: V(300) at kappa=1 = {report['final_V']:.3g} (< 1e-6); "
        f"ln V fit R^2 = {r2:.6f} (>= 0.99); "
        f"rates = {rates['0.5']:.4f} / {rates['1']:.4f} / {rates['2']:.4f} (strictly increasing)"
    )
    assert report["final_V"] < 1e-6
    assert r2 >= 0.99
    assert rates["0.5"] < rates["1"] < rates["2"]


def test_criterion_06_interaction_lasalle(figure3_runs):
    plateaus = {}
    for label, (traj, report) in sorted(figure3_runs.items()):
        dist, _ = lasalle_distance(traj.rho[-1])
        c_final = report["final_concurrence"]
        v_final = report["final_V"]
        half = traj.t >= traj.t[-1] / 2.0
        flatness = float(np.ptp(traj.V[half]))
        plateaus[label] = v_final
        print(
            f"criterion 6: {label} lasalle distance = {dist:.3g} (< 1e-3), "
            f"final C = {c_final:.8f} (> 0.999), V plateau = {v_final:.4f} (> 0), "
            f"plateau variation over last half = {flatness:.3g}"
        )
        assert dist < 1e-3, label
        assert c_final > 0.999, label
        assert v_final > 0.0, label
        assert flatness < 1e-6, label  # V has genuinely stopped moving
    values = sorted(plateaus.values())
    for low, high in zip(values, values[1:]):
        assert high - low > 1e-3, f"plateaus too close: {plateaus}"


def test_criterion_07_concurrence_monotonicity(lyapunov_runs):
    # Both paradigms: concurrence nondecreasing (1e-6 slack) and 1-C decaying
    # exponentially with R^2 >= 0.98 over its mid-decay window.
    results = []
    for label, (traj, _) in sorted(lyapunov_runs.items()):
        min_dc = float(np.min(np.diff(traj.concurrence)))
        deficit = 1.0 - traj.concurrence
        mask = (deficit > 1e-6) & (deficit < 0.5)
        assert int(mask.sum()) >= 10, label
        _, r2 = _log_linear_fit(traj.t[mask], deficit[mask])
        results.append((label, min_dc, r2))
        print(
            f"criterion 7: {label} min delta-C = {min_dc:.3g} (slack -1e-6), "
            f"1-C exponential fit R^2 = {r2:.3f} (>= 0.98)"
        )
    for label, min_dc, r2 in results:
        assert min_dc >= -1e-6, f"{label}: concurrence decreases by {-min_dc:.3g}"
        assert r2 >= 0.98, f"{label}: 1-C fit R^2 = {r2:.3f}"


def test_criterion_08_oracle_equivalence():
    # Route A (`propagate_exact`, the route every constant-field scenario
    # takes) against route B (the `expm` propagator) for a constant field over
    # [0, 200], then the 2-level reduction against the full 4-level closed
    # loop: the one-sector run from |++> at kappa against the S block, divided
    # by p, of the two-sector run from sqrt(p)|++> + sqrt(1-p)|+-> at kappa/p
    # (`tests/test_dynamics.py::TestReducedRuns` derives the identity). The
    # closed-loop comparison runs at tightened tolerances: the criterion pins
    # the 1e-8 agreement, and the integrator's global error at default
    # tolerances sits near that boundary.
    tight = dict(rel_tol=1e-11, abs_tol=1e-13)
    params = ModelParams(J=1.0, eta=0.1)
    h = hamiltonians(params, Paradigm.LOCAL_CONTROL)
    psi0 = X_PRODUCT.vector_from_z(STATE_LITERALS["|00>"])
    psi_d0 = X_PRODUCT.vector_from_z(STATE_LITERALS["PhiPlus"])
    cfg = IntegratorConfig(t_max=200.0, sample_every=0.5)
    traj = propagate_exact(h, Geometric(t0=200.0), psi0, psi_d0, cfg)
    rho0 = outer(psi0)
    h_tot = sum(model_matrices(params, Paradigm.LOCAL_CONTROL))
    worst_const = max(
        np.linalg.norm(traj.rho[i] - geometric_evolve(h_tot, rho0, float(t)))
        for i, t in enumerate(traj.t)
    )
    print(
        f"criterion 8: constant-field propagate_exact vs expm propagator, "
        f"max state deviation over [0, 200] = {worst_const:.3g} (<= 1e-8)"
    )
    assert worst_const <= 1e-8

    p = 0.64
    cfg_cl = IntegratorConfig(t_max=300.0, **tight)
    plus = np.eye(4, dtype=complex)  # |++>, |+->, |-+>, |--> in XProduct coordinates
    traj2 = integrate(h, Lyapunov(kappa=1.0), plus[0], psi_d0, cfg_cl)
    traj4 = integrate(h, Lyapunov(kappa=1.0 / p),
                      np.sqrt(p) * plus[0] + np.sqrt(1.0 - p) * plus[1], psi_d0, cfg_cl)
    amplitudes = [t.integrator_stats.amplitudes for t in (traj2, traj4)]
    assert amplitudes == [2, 4]
    assert np.array_equal(traj2.t, traj4.t)
    s_block = np.ix_(range(len(traj4)), [0, 3], [0, 3])
    worst_state = float(np.max(np.abs(traj4.rho[s_block] / p - traj2.rho[s_block])))
    worst_v = float(np.max(np.abs((1.0 - traj4.V) - p * (1.0 - traj2.V))))
    worst_f = float(np.max(np.abs(traj2.f - traj4.f)))
    print(
        f"criterion 8: 2-level vs 4-level closed loop, max deviations: "
        f"state {worst_state:.3g}, V {worst_v:.3g}, f {worst_f:.3g} (each <= 1e-8)"
    )
    assert worst_state <= 1e-8
    assert worst_v <= 1e-8
    assert worst_f <= 1e-8


def test_criterion_09_invariant_suite(figure1_runs, lyapunov_runs):
    all_runs = {**figure1_runs, **lyapunov_runs}
    for label, (traj, _) in sorted(all_runs.items()):
        trace_dev = max(abs(complex(np.trace(r)) - 1.0) for r in traj.rho)
        herm_dev = max(float(np.abs(r - r.conj().T).max()) for r in traj.rho)
        purity_dev = max(
            abs(float(np.real(np.trace(r @ r))) - 1.0) for r in traj.rho
        )
        ps_dev = float(np.ptp(traj.p_S))
        print(
            f"criterion 9: {label} trace dev {trace_dev:.2g}, hermiticity dev "
            f"{herm_dev:.2g}, purity dev {purity_dev:.2g}, p_S drift {ps_dev:.2g}"
        )
        assert trace_dev <= TRACE_TOL, label
        assert herm_dev <= HERM_TOL, label
        assert purity_dev <= PURITY_TOL, label
        assert ps_dev <= TRACE_TOL, label

    # Concurrence is invariant under local unitaries: 100 random mixed states.
    rng = np.random.default_rng(9)

    def random_u2() -> np.ndarray:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    worst_lu = 0.0
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        u = np.kron(random_u2(), random_u2())
        diff = abs(concurrence(rho) - concurrence(u @ rho @ u.conj().T))
        worst_lu = max(worst_lu, diff)
        assert diff <= 1e-7
    print(f"criterion 9: worst local-unitary concurrence deviation = {worst_lu:.3g}")

    # The control field never exceeds its Cauchy-Schwarz bound.
    configs = dict(preset_scenarios("figure2") + preset_scenarios("figure3"))
    worst_margin = np.inf
    for label, (traj, _) in sorted(lyapunov_runs.items()):
        cfg = configs[label]
        h1 = model_matrices(cfg.model, cfg.paradigm)[1]
        for i in range(len(traj)):
            bound = f_bound(traj.rho[i], traj.rho_d[i], h1, cfg.law.kappa)
            margin = bound - abs(float(traj.f[i]))
            worst_margin = min(worst_margin, margin)
            assert bound + 1e-12 >= abs(float(traj.f[i])), f"{label} sample {i}"
    print(f"criterion 9: smallest f_bound - |f| margin = {worst_margin:.3g}")


def test_criterion_10_robustness_contrast(figure1_runs, figure2_runs):
    # Geometric side: +/-2% jitter on the switch-off time at B=0.4, all runs
    # drifting freely to a common end time, must move final concurrence by
    # more than 1%.
    traj04, _ = figure1_runs["figure1_B0.4"]
    t_peak = float(traj04.t[int(np.argmax(traj04.concurrence))])
    cfg04 = dict(preset_scenarios("figure1"))["figure1_B0.4"]
    base = dataclasses.replace(
        cfg04,
        law=Geometric(t0=t_peak),
        integrator=dataclasses.replace(cfg04.integrator, t_max=1.03 * t_peak),
    )
    values = tuple(t_peak * s for s in (0.98, 0.99, 1.0, 1.01, 1.02))
    rows = run_sweep(SweepConfig(base=base, axis="law.t0", values=values))
    assert all(row["error"] is None for row in rows)
    finals = np.array([row["final_concurrence"] for row in rows])
    geo_spread = float((finals.max() - finals.min()) / finals.max())

    # Feedback side: stopping a converged run anywhere in the last couple of
    # envelope periods must leave final concurrence essentially unchanged.
    traj, _ = figure2_runs["figure2_k1"]
    tail = traj.concurrence[traj.t >= 294.0 - 1e-9]
    lyap_spread = float(np.ptp(tail) / tail[-1])

    print(
        f"criterion 10: geometric final-C spread under +/-2% switch jitter = "
        f"{100 * geo_spread:.2f}% (> 1%); feedback stop-time spread = "
        f"{lyap_spread:.3g} (< 0.1%)"
    )
    assert geo_spread > 0.01
    assert lyap_spread < 1e-3
