"""Unit tests for the adaptive closed-loop integrator and the exact open-loop
propagator.

Both propagators take the initial state and target as unit 4-vectors in
XProduct coordinates. ``integrate`` steps feedback laws only. Test classes
whose cases hold for any propagator and law take the propagator from the
class attribute ``propagate``: ``oracles.dop853_run``, a stepped reference
on scipy's DOP853 that takes open-loop laws too, with the signature of
both propagators. Each has an ``...Exact`` subclass that reruns the same
cases through ``propagate_exact``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from bellsteer import dynamics
from bellsteer.control import Geometric, Lyapunov, lyapunov_value
from bellsteer.dynamics import (
    IntegrationError,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    TrajectoryMetadata,
    integrate,
    propagate_exact,
    rhs,
)
from bellsteer.experiments import STATE_LITERALS, preset_scenarios
from bellsteer.metrics import concurrence
from bellsteer.model import (
    BellName,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    bell_state,
    hamiltonians,
    subspace_populations,
)
from oracles import (
    commutator_field,
    dense_samples_reference,
    dop853_run,
    geometric_evolve,
    outer,
    pair_matrices,
    psi_coefficients,
    psi_rhs,
    sector_blocks,
    vec_frame,
    vec_rhs,
)

P = ModelParams(J=1.0, eta=0.1)
TIGHT = dict(rel_tol=1e-11, abs_tol=1e-13)


def local_pair():
    return hamiltonians(P, Paradigm.LOCAL_CONTROL)


def x_state(name):
    idx = {"|++>": 0, "|-->": 3}[name]
    v = np.zeros(4, dtype=complex)
    v[idx] = 1.0
    return v


def off_s_state():
    """|++> with a Psi- admixture, which H1 annihilates: it has weight on
    three eigen-amplitudes of H0 and in both parity sectors, so its runs
    step the 4-amplitude attempt."""
    return 0.8 * np.eye(4)[0] + 0.6 * bell_state(BellName.PSI_MINUS, X_PRODUCT)


class TestIntegratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_max=0.0),
            dict(t_max=10.0, abs_tol=-1e-11),
            dict(t_max=10.0, rel_tol=0.0),
            dict(t_max=10.0, sample_every=0.0),
            dict(t_max=10.0, v_stop=0.0),
            dict(t_max=10.0, v_stop=-1e-8),
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            IntegratorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_max=float("nan")),
            dict(t_max=float("inf")),
            dict(t_max=10.0, rel_tol=float("nan")),
            dict(t_max=10.0, abs_tol=float("inf")),
            dict(t_max=10.0, v_stop=float("nan")),
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**kwargs)


class TestSampling:
    propagate = staticmethod(dop853_run)

    def test_grid_spacing_and_endpoint(self):
        h = local_pair()
        traj = self.propagate(h, None, x_state("|++>"), x_state("|-->"),
                              IntegratorConfig(t_max=1.0, sample_every=0.25))
        assert np.allclose(traj.t, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_irregular_endpoint_appended(self):
        h = local_pair()
        traj = self.propagate(h, None, x_state("|++>"), x_state("|-->"),
                              IntegratorConfig(t_max=1.05, sample_every=0.25))
        assert traj.t[-1] == pytest.approx(1.05)
        assert len(traj) == 6

    def test_dimension_mismatch_rejected(self):
        h = local_pair()
        with pytest.raises(ValueError, match="dimensions"):
            self.propagate(h, None, np.array([1.0, 0.0]), x_state("|-->"),
                           IntegratorConfig(t_max=1.0))

    def test_v_stop_keeps_first_sample_below(self):
        # V of |++> against Phi+ falls from 0.5 to 0.401 while the field is on;
        # 0.449 at t=0.4 is the first sample under 0.45.
        h = local_pair()
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=4.0, v_stop=0.45)
        traj = self.propagate(h, Geometric(t0=2.0), x_state("|++>"), psi_d0, cfg)
        assert traj.t[-1] == pytest.approx(0.4)
        assert traj.V[-1] < 0.45
        assert np.all(traj.V[:-1] >= 0.45)


class TestSamplingExact(TestSampling):
    propagate = staticmethod(propagate_exact)


@pytest.mark.parametrize(
    "propagate,law", [(integrate, Lyapunov(kappa=1.0)), (propagate_exact, None)],
    ids=["integrate", "exact"],
)
def test_tiny_t_max_samples_its_end(propagate, law):
    # The grid's slack and the stepper's end tolerance scale with t_max, so a
    # run far shorter than 1e-9 keeps its end sample and is stepped to it.
    psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
    traj = propagate(local_pair(), law, x_state("|++>"), psi_d0, IntegratorConfig(t_max=5e-11))
    assert traj.t.tolist() == [0.0, 5e-11]


class TestFreeEvolution:
    def test_matches_matrix_exponential(self):
        h = local_pair()
        psi0 = np.full(4, 0.5, dtype=complex)  # |00> in X coordinates
        traj = propagate_exact(h, None, psi0, x_state("|++>"), IntegratorConfig(t_max=10.0))
        assert np.all(traj.f == 0.0)
        h0, _ = pair_matrices(h)
        for i in (13, 57, 100):
            exact = geometric_evolve(h0, outer(psi0), float(traj.t[i]))
            assert np.linalg.norm(traj.rho[i] - exact) < 1e-9

    def test_target_always_drifts_under_h0(self):
        h = local_pair()
        psi_d0 = bell_state(BellName.PHI_MINUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=5.0, **TIGHT)
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), psi_d0, cfg)
        exact = geometric_evolve(pair_matrices(h)[0], outer(psi_d0), float(traj.t[-1]))
        assert np.linalg.norm(traj.rho_d[-1] - exact) < 1e-9


class TestGeometricRuns:
    propagate = staticmethod(dop853_run)

    def test_field_switches_at_t0(self):
        h = local_pair()
        law = Geometric(t0=2.0)
        traj = self.propagate(h, law, x_state("|++>"), x_state("|-->"),
                              IntegratorConfig(t_max=4.0))
        on = traj.t < 2.0
        assert np.all(traj.f[on] == 1.0)
        assert np.all(traj.f[~on] == 0.0)

    def test_post_switch_free_drift(self):
        h = local_pair()
        psi0 = np.full(4, 0.5, dtype=complex)
        law = Geometric(t0=2.0)
        traj = self.propagate(h, law, psi0, x_state("|++>"), IntegratorConfig(t_max=5.0))
        h0, h1 = pair_matrices(h)
        at_t0 = geometric_evolve(h0 + h1, outer(psi0), 2.0)
        exact_end = geometric_evolve(h0, at_t0, 3.0)
        assert np.linalg.norm(traj.rho[-1] - exact_end) < 1e-9


class TestGeometricRunsExact(TestGeometricRuns):
    propagate = staticmethod(propagate_exact)


class TestLyapunovRuns:
    def test_descent_and_flags(self):
        h = local_pair()
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), psi_d0,
                         IntegratorConfig(t_max=20.0))
        assert np.all(np.diff(traj.V) <= 1e-10)
        assert not traj.metadata.stalled
        assert traj.metadata.paradigm is Paradigm.LOCAL_CONTROL

    def test_stalled_run_detected(self):
        # From the phase-flipped Bell state the feedback vanishes identically
        # while V stays at a constant positive value.
        h = local_pair()
        psi0 = bell_state(BellName.PHI_MINUS, X_PRODUCT)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = integrate(h, Lyapunov(kappa=1.0), psi0, psi_d0,
                         IntegratorConfig(t_max=10.0))
        assert traj.metadata.stalled
        assert np.max(np.abs(traj.f)) <= 1e-14
        assert np.all(np.abs(traj.V - traj.V[0]) < 1e-9)
        assert traj.V[0] == pytest.approx(1.0)

    def test_sign_flip_steers_to_phase_flipped_target(self):
        # Driving against Phi+ with a negative gain converges to Phi- instead.
        h = local_pair()
        psi0 = x_state("|++>")
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=300.0)
        flipped = integrate(h, Lyapunov(kappa=-1.0), psi0, psi_d0, cfg)
        phi_minus = outer(bell_state(BellName.PHI_MINUS, X_PRODUCT))
        assert np.linalg.norm(flipped.rho[-1] - phi_minus) < 1e-3

    def test_v_stop_ends_run_early(self):
        h = local_pair()
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=300.0, v_stop=1e-8)
        traj = integrate(h, Lyapunov(kappa=2.0), x_state("|++>"), psi_d0, cfg)
        assert traj.t[-1] < 300.0
        assert traj.V[-1] < 1e-8
        assert traj.V[-2] >= 1e-8

    def test_v_stop_below_the_roundoff_of_fidelity(self):
        # V reaches 1.5e-19 on this preset, where (N² + N_d²)/2 - |b|² is a
        # multiple of about 1e-16. The stepper's cut and the V column take V
        # in one form, so the run ends at its first sample below 1e-17.
        cfg, h, states = preset_states("figure4_local_k2")
        run = dataclasses.replace(cfg.integrator, v_stop=1e-17)
        traj = integrate(h, cfg.law, *states, run)
        assert traj.V[-1] < 1e-17 <= np.min(traj.V[:-1])
        assert traj.t[-1] < run.t_max

    def test_v_stop_ends_four_amplitude_run_early(self):
        # V falls from 0.68 towards the Psi- population 0.36 (`off_s_state`)
        # and passes 0.5 at t = 12.4.
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=60.0, v_stop=0.5)
        traj = integrate(local_pair(), Lyapunov(kappa=2.0), off_s_state(), psi_d0, cfg)
        stats = traj.metadata.integrator_stats
        assert stats.amplitudes == 4
        assert traj.V[-1] < 0.5 <= traj.V[-2]
        # Stepping ended with the step that passed the cut, not at t_max.
        assert stats.accepted * stats.h_max < 2 * traj.t[-1] < cfg.t_max

    @pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
    def test_reduced_pair_matches_four_level_run(self, paradigm):
        TestReducedRuns.check_four_level_run(integrate, paradigm, Lyapunov(kappa=1.0))

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    @pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
    @pytest.mark.parametrize("initial,target", [("|00>", "PhiPlus"), ("|++>", "PsiMinus")])
    def test_fixed_points_read_stalled(self, initial, target, paradigm, kappa):
        # |00> has the S part Phi+/sqrt(2), aligned with the target, so V sits at
        # its floor 1 - p_S = 1/2; |++> has no overlap with Psi-, which is off S.
        # The field vanishes at both. Under local control at kappa = 2 the
        # stepper lets the roundoff of the first grow to |f| = 4e-13 at
        # steps of up to 156, below its tolerance, while V holds to 64 u.
        h = hamiltonians(P, paradigm)
        psi0, psi_d0 = (X_PRODUCT.vector_from_z(STATE_LITERALS[s]) for s in (initial, target))
        traj = integrate(h, Lyapunov(kappa), psi0, psi_d0, IntegratorConfig(t_max=300.0))
        assert traj.metadata.stalled
        assert np.max(np.abs(traj.V - traj.V[0])) <= 64 * 2.0**-53

    @pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
    def test_short_run_reads_not_stalled(self, paradigm):
        # The figure2/figure3 start and target, cut at 5e-11: V moves by less
        # than 64 u, but the run ends within a period 2 pi/w of its sector's
        # phase (w = 4 or 0.4), before the field has risen, so it shows no
        # fixed point.
        h = hamiltonians(P, paradigm)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), psi_d0,
                         IntegratorConfig(t_max=5e-11))
        assert np.max(np.abs(traj.V - traj.V[0])) <= 64 * 2.0**-53
        assert not traj.metadata.stalled

    def test_presets_read_not_stalled(self, lyapunov_runs):
        # The six Lyapunov presets of figure2 and figure3 are the six of figure4.
        assert [label for label, (traj, _) in sorted(lyapunov_runs.items())
                if traj.metadata.stalled] == []


class TestProjection:
    """After each accepted step and at each sample psi~ is scaled back to its
    initial norm; the drift it removes is checked and reported."""

    def test_norm_drift_aborts(self, monkeypatch):
        # From t = 0.35 on, a stand-in term 1e-3 y grows the squared norm of
        # psi~ in a step of size h >= 0.01 by about 2e-3 h when y is psi~, and
        # by 1e-3 h when y is the Bloch vector of one sector, whose length is
        # that squared norm: past ABORT_FACTOR * TRACE_TOL = 1e-8 in the first
        # step that reaches it.
        real_rhs = dynamics.rhs

        def growing(coeffs, t, *y):
            dy = real_rhs(coeffs, t, *y)
            return tuple(d + 1e-3 * x for d, x in zip(dy, y)) if t > 0.35 else dy

        monkeypatch.setattr(dynamics, "rhs", growing)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        for psi0 in (x_state("|++>"), off_s_state()):  # one sector (Bloch) and both
            with pytest.raises(IntegrationError, match="psi~ norm drift") as excinfo:
                integrate(local_pair(), Lyapunov(kappa=1.0), psi0, psi_d0,
                          IntegratorConfig(t_max=1.0))
            assert 0.35 < excinfo.value.t < 0.5

    def test_preset_runs_report_their_drift(self, lyapunov_runs):
        # The six Lyapunov presets of figure2 and figure3 are the six of figure4.
        for label, (_, report) in sorted(lyapunov_runs.items()):
            drift = report["integrator_stats"]["max_norm_drift"]
            assert 0.0 < drift < 1e-8, label

    def test_v_monotone_to_roundoff(self, lyapunov_runs):
        """V is taken on the samples of psi~ against the constant psi_d~ of
        the frame (`integrate`): V = (N - N_d)²/2 + N_d ||r||², with
        r = psi~ - psi_d~ b / N_d, b = <psi_d~|psi~> and N, N_d the squared
        norms. For unit states the first term is below 1e-31 and V = ||r||²
        <= 1. Computed in floating point (unit roundoff u = 2^-53) over at
        most 4 entries of modulus at most 1, b is off by about 6 u, b / N_d
        and its product with each entry of psi_d~ add a few u, and the
        difference u |r_k|, so ||r|| is off by about 11 u and ||r||² by
        about 2 * 11 u ||r|| + 4 u ||r||² <= 26 u; N_d and the product with
        it add 2 u. So each V is within 32 u of the exact V of its projected
        sample, along which the feedback only lowers V, and a rise between
        two samples beyond 64 u (7.1e-15) is not roundoff.

        No rounded phase enters V. psi_d~ is constant in the frame, and the
        phases exp(-i (lam - lam_0) t) that carry psi~ to the lab state
        reach only the concurrence, fidelity and purity columns and rho.

        The 64 u bound holds only while the stepper keeps the distance
        r~_z of the interaction runs from their LaSalle set small. Near that
        set a rise of V between samples also carries the stepper's
        truncation and continuous-extension error, which is second order in
        r~_z and which the count above does not bound. CHANGES.md records
        it (the Bloch step's entry): the psi~ stepper at rel_tol 1e-8 rose
        beyond 64 u on 19 samples of figure3_k0.5, and a Bloch stepper with
        the amplitudes' axial tolerance by up to 4.9e-14 inside steps of up
        to 7.7 at the default tolerances (`BENCH_bloch_step.json`,
        "axial_tolerance"). The runs here use the default tolerances, at
        which `_dp5`'s axial tolerance 2 (atol + rtol |r~_z|) keeps r~_z
        small."""
        bound = 64 * 2.0**-53
        for label, (traj, _) in sorted(lyapunov_runs.items()):
            assert np.max(np.diff(traj.V)) <= bound, label


class TestReducedRuns:
    """The reduced run is the one-sector run. H1 is block diagonal in the
    parity sectors, so for a target psi_d in S and a state
    sqrt(p) psi_S + sqrt(1 - p) psi_perp the feedback 2 kappa Im(<psi_d|H1 psi> <psi|psi_d>)
    is p times the field of psi_S alone: at gain kappa / p the S block of the
    run, divided by p, is the one-sector run from psi_S at gain kappa, the
    fields are equal and 1 - V = p (1 - V_1). An open-loop field does not
    depend on the state, so there the same law serves both."""

    propagate = staticmethod(dop853_run)
    laws = (Geometric(t0=7.0), Lyapunov(kappa=1.0))

    def test_two_level_run_reports_embedded_metrics(self):
        # Phi+ is a free eigenstate in S: a run of one sector of two levels.
        h = local_pair()
        phi = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = self.propagate(h, None, phi, phi, IntegratorConfig(t_max=2.0))
        assert np.allclose(traj.p_S, 1.0, atol=1e-9)
        assert np.allclose(traj.concurrence, 1.0, atol=1e-9)

    @pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
    def test_matches_four_level_run(self, paradigm):
        for law in self.laws:
            self.check_four_level_run(self.propagate, paradigm, law)

    @staticmethod
    def check_four_level_run(propagate, paradigm, law, t_max=20.0, p=0.64):
        """From |++> against 0.8|++> + 0.6|+->, towards Phi+, sample by sample:
        one run steps S alone, the other both sectors. Returns the largest
        deviations in rho, f and V, each within 1e-8."""
        h = hamiltonians(P, paradigm)
        cfg = IntegratorConfig(t_max=t_max, **TIGHT)
        e = np.eye(4, dtype=complex)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        one = propagate(h, law, e[0], psi_d0, cfg)
        law_p = dataclasses.replace(law, kappa=law.kappa / p) if isinstance(law, Lyapunov) else law
        both = propagate(h, law_p, np.sqrt(p) * e[0] + np.sqrt(1 - p) * e[1], psi_d0, cfg)
        assert np.array_equal(one.t, both.t)
        s = np.ix_(range(len(one)), [0, 3], [0, 3])
        worst = (np.max(np.abs(both.rho[s] / p - one.rho[s])),
                 np.max(np.abs(both.f - one.f)),
                 np.max(np.abs((1 - both.V) - p * (1 - one.V))))
        assert max(worst) <= 1e-8, (law, worst)
        return worst


class TestReducedRunsExact(TestReducedRuns):
    propagate = staticmethod(propagate_exact)
    laws = (Geometric(t0=7.0),)  # propagate_exact takes no feedback


class TestInvariantMonitor:
    """The invariant checks of the exact path's sample pass, on stacks that
    no propagator makes any more: both take unit vectors, and psi psi†
    keeps every invariant by construction. Each stack holds the free
    evolution (`_evolve`, which takes any rho) of a bad rho0 and of rho_d0
    at the samples of [0, 1] every 0.1, as `propagate_exact` formed it with
    no law; the unitary leaves each drift as it is at t = 0. `check` feeds
    the stack to `_check_invariants` from t = 0.1 on, against the purities
    at t = 0, as `_diagnose` does."""

    @staticmethod
    def check(h, t, states):
        dynamics._check_invariants(t[1:], states[1:], dynamics._purity(states[0]))

    def run(self, rho0, rho_d0):
        h = local_pair()
        t = dynamics._sample_grid(IntegratorConfig(t_max=1.0))
        (lam,), (w,), _ = dynamics._sector_eigh(h)
        self.check(h, t, np.stack([dynamics._evolve((lam, w), r, t) for r in (rho0, rho_d0)], 1))

    def test_aborts_on_trace_violation(self):
        bad = 0.9 * outer(x_state("|++>"))  # trace 0.9 trips the monitor immediately
        with pytest.raises(IntegrationError, match="trace"):
            self.run(bad, outer(x_state("|-->")))

    def test_error_carries_time(self):
        bad = 0.9 * outer(x_state("|++>"))
        with pytest.raises(IntegrationError) as excinfo:
            self.run(bad, outer(x_state("|-->")))
        assert excinfo.value.t == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "rho_scale,rho_d_scale,offdiag,negative,message",
        [
            (1.0, 0.9, 0.0, 0.0, "rho_d trace drift 1.000e-01"),
            (0.9, 0.8, 0.0, 0.0, "rho trace drift 1.000e-01"),
            (1.0, 1.0, 1e-3, 0.0, "rho Hermiticity drift 1.414e-03"),
            (1.0, 1.0, 0.0, 0.1, "rho eigenvalue -1.000e-01 below"),
        ],
    )
    def test_reports_first_violation(self, rho_scale, rho_d_scale, offdiag, negative, message):
        rho0 = np.diag([1.0 + negative, -negative, 0.0, 0.0]).astype(complex) * rho_scale
        rho0[0, 1] = offdiag
        with pytest.raises(IntegrationError, match=message) as excinfo:
            self.run(rho0, rho_d_scale * outer(x_state("|++>")))
        assert excinfo.value.t == pytest.approx(0.1)


class TestInvariantMonitorExact(TestInvariantMonitor):
    """The same stacks through `_diagnose`, the pass `propagate_exact` ends in."""

    @staticmethod
    def check(h, t, states):
        dynamics._diagnose(h, None, 0, t, states, None)


def random_pure_state(amps):
    v = np.array(amps[:4]) + 1j * np.array(amps[4:])
    return v / np.linalg.norm(v)


class TestExactPropagation:
    @pytest.mark.parametrize("t0", [2.0, 5.0], ids=["switched", "field_on"])
    def test_matches_matrix_exponential(self, t0):
        h = local_pair()
        psi0 = (np.full(4, 0.5) + 1j * x_state("|++>")) / np.sqrt(2)  # on both sectors
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = propagate_exact(h, Geometric(t0=t0), psi0, psi_d0,
                               IntegratorConfig(t_max=5.0))
        h0, h1 = pair_matrices(h)
        rho0, rho_d0 = outer(psi0), outer(psi_d0)
        at_t0 = geometric_evolve(h0 + h1, rho0, t0)
        for t, rho, rho_d in zip(traj.t, traj.rho, traj.rho_d):
            if t < t0:
                expected = geometric_evolve(h0 + h1, rho0, t)
            else:
                expected = geometric_evolve(h0, at_t0, t - t0)
            assert np.max(np.abs(rho - expected)) <= 1e-12, t
            assert np.max(np.abs(rho_d - geometric_evolve(h0, rho_d0, t))) <= 1e-12, t

    @pytest.mark.parametrize("field", [0.0, 1.0], ids=["free", "driven"])
    def test_evolve_takes_mixed_states(self, field):
        # The propagators take state vectors, but `_evolve` takes any rho.
        h = local_pair()
        rho0 = 0.7 * outer(np.full(4, 0.5, dtype=complex)) + 0.3 * outer(x_state("|++>"))  # mixed
        (lam,), (w,), _ = dynamics._sector_eigh(h, (field,))
        t = np.linspace(0.0, 5.0, 51)
        h0, h1 = pair_matrices(h)
        for t_k, rho in zip(t, dynamics._evolve((lam, w), rho0, t)):
            assert np.max(np.abs(rho - geometric_evolve(h0 + field * h1, rho0, t_k))) <= 1e-12

    def test_rejects_feedback_law(self):
        h = local_pair()
        with pytest.raises(ValueError, match="integrate"):
            propagate_exact(h, Lyapunov(kappa=1.0), x_state("|++>"), x_state("|-->"),
                            IntegratorConfig(t_max=1.0))

    @pytest.mark.parametrize("law", [Geometric(t0=1.0), None], ids=["geometric", "none"])
    def test_integrate_rejects_open_loop_law(self, law, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "rhs", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="propagate_exact"):
            integrate(local_pair(), law, x_state("|++>"), x_state("|-->"),
                      IntegratorConfig(t_max=1.0))
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(
        eta=st.floats(0.05, 0.9),
        k=st.floats(0.5, 2.0),
        paradigm=st.sampled_from(list(Paradigm)),
        t_max=st.floats(0.5, 5.0),
        switch=st.floats(0.0, 1.0),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16).filter(
            lambda a: np.linalg.norm(a[:8]) > 0.1 and np.linalg.norm(a[8:]) > 0.1
        ),
    )
    def test_random_open_loop_runs(self, eta, k, paradigm, t_max, switch, amps):
        h = hamiltonians(ModelParams(J=1.0, eta=eta, k=k), paradigm)
        psi0, psi_d0 = random_pure_state(amps[:8]), random_pure_state(amps[8:])
        t0 = switch * t_max
        cfg = IntegratorConfig(t_max=t_max, sample_every=0.25)
        traj = propagate_exact(h, Geometric(t0=t0), psi0, psi_d0, cfg)
        rho0, rho_d0 = outer(psi0), outer(psi_d0)
        h0, h1 = pair_matrices(h)
        at_t0 = geometric_evolve(h0 + h1, rho0, t0)
        for t, rho, rho_d in zip(traj.t, traj.rho, traj.rho_d):
            if t < t0:
                expected = geometric_evolve(h0 + h1, rho0, t)
            else:
                expected = geometric_evolve(h0, at_t0, t - t0)
            assert np.max(np.abs(rho - expected)) <= 1e-10
            assert np.max(np.abs(rho_d - geometric_evolve(h0, rho_d0, t))) <= 1e-10
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert abs(np.real(np.trace(rho @ rho)) - 1.0) <= 1e-12


class TestParity:
    """H0 and H1 commute with X(x)X, as every pair is two sector blocks, so
    the population of S bounds what any law can reach."""

    @settings(max_examples=40, deadline=None)
    @given(
        paradigm=st.sampled_from(list(Paradigm)),
        exact=st.booleans(),
        gain=st.floats(0.1, 3.0),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12).filter(
            lambda a: np.linalg.norm(a[:8]) > 0.1 and np.linalg.norm(a[8:]) > 0.1
        ),
    )
    def test_v_stays_above_the_reachability_bound(self, paradigm, exact, gain, amps):
        """For a target in S, |<psi_d|psi>|² = |<psi_d|P_S psi>|² <= p_S, and
        p_S is a constant of motion, so V(t) >= 1 - p_S(0) under every law at
        every time. The computed V is within 32 u of the exact V of its
        sample, and on `integrate`'s samples p_S may drift by up to the abort
        threshold, 1e-8."""
        h = hamiltonians(P, paradigm)
        psi0 = random_pure_state(amps[:8])
        psi_d = np.zeros(4, dtype=complex)
        psi_d[[0, 3]] = np.array(amps[8:10]) + 1j * np.array(amps[10:])
        assume(np.linalg.norm(psi_d) > 0.1)
        psi_d0 = psi_d / np.linalg.norm(psi_d)
        cfg = IntegratorConfig(t_max=5.0)
        if exact:
            traj, slack = propagate_exact(h, Geometric(t0=gain), psi0, psi_d0, cfg), 0.0
        else:
            traj, slack = integrate(h, Lyapunov(kappa=gain), psi0, psi_d0, cfg), 1e-8
        assert np.min(traj.V - (1.0 - traj.p_S[0])) >= -(64 * 2.0**-53 + slack)


class TestTrajectoryType:
    def test_strictly_increasing_times_enforced(self):
        meta = TrajectoryMetadata(None, None, None, False)
        n = 3
        arr = np.zeros((n, 4, 4), dtype=complex)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.5, 0.5]), *[np.zeros(n)] * 6, meta,
                       lambda: arr, lambda: arr)

    def test_len_counts_samples(self):
        h = local_pair()
        traj = propagate_exact(h, None, x_state("|++>"), x_state("|-->"),
                               IntegratorConfig(t_max=1.0, sample_every=0.5))
        assert len(traj) == 3

    def test_rhs_traceless_and_hermiticity_preserving(self):
        # For rho~ = psi~ psi~†, drho~ = dpsi~ psi~† + psi~ dpsi~† is Hermitian by
        # construction, and Tr drho~ = 2 Re <psi~|dpsi~>, which keeps the norm.
        rng = np.random.default_rng(19)
        h = local_pair()
        psi, psi_d = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        frame, y = dynamics._frame(h, 1.0, psi / np.linalg.norm(psi),
                                   psi_d / np.linalg.norm(psi_d))
        dy = rhs(frame[2], 0.7, *y)
        assert len(dy) == 4  # the state alone; the target is not stepped
        assert abs(np.vdot(y, dy).real) < 1e-14


def random_matrix(values, d):
    """A d x d complex matrix from 2 d^2 floats."""
    v = np.asarray(values[: 2 * d * d])
    return (v[: d * d] + 1j * v[d * d:]).reshape(d, d)


floats32 = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).filter(
    lambda v: np.linalg.norm(v) > 0.1
)


def random_pair(h0, h1):
    """A pair of random Hermitian sector blocks, each from 32 floats: the
    blocks of a random 4x4 matrix m (`oracles.sector_blocks`) plus their
    adjoints."""
    blocks = (sector_blocks(random_matrix(m, 4)) for m in (h0, h1))
    return HamiltonianPair(*(b + b.conj().swapaxes(1, 2) for b in blocks))


def random_vector(values, d):
    """A unit vector of length d from 2 d floats."""
    v = np.asarray(values[:d]) + 1j * np.asarray(values[d: 2 * d])
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


def bloch_derivative(y, dy):
    """The derivative of the Bloch vector of psi~ = y, as `dynamics._bloch`
    takes it, along dpsi~ = dy."""
    p = np.conj(dy[0]) * y[1] + np.conj(y[0]) * dy[1]
    return np.array([2 * p.real, 2 * p.imag,
                     2 * (np.conj(y[0]) * dy[0] - np.conj(y[1]) * dy[1]).real])


class TestRhs:
    """`rhs` on psi~, the state vector in the interaction picture of H0 written
    in its eigenbasis W, against the lab-frame Schrodinger derivative carried
    into that frame with an independent matrix exponential
    U0(t) = expm(-i H0 t), with the feedback from `commutator_field` on psi psi†."""

    @settings(max_examples=100, deadline=None)
    @given(
        h0=floats32,
        h1=floats32,
        psi=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        psi_d=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        levels=st.sampled_from([[0, 3], [1, 2], [0, 1, 2, 3]]),
        law=st.builds(lambda kappa, sign: Lyapunov(sign * kappa), st.floats(0.01, 3.0),
                      st.sampled_from([1, -1])),
        t=st.floats(0.0, 2.0),
    )
    def test_matches_commutator_form(self, h0, h1, psi, psi_d, levels, law, t):
        """A random pair of Hermitian sector blocks, and states on one sector
        (the XProduct levels {0, 3} are S) or on both. On both, y is psi~ at time t
        on the stepped columns of W and its derivative is held to the
        reference's; on one sector y is psi~'s Bloch vector r~, and its
        derivative to the reference's dpsi~ mapped to r~ by the derivative
        of `_bloch`, dr~ = (2 Re p, 2 Im p, 2 Re(conj(y0) dy0 - conj(y1) dy1))
        with p = conj(dy0) y1 + conj(y0) dy1. For a unit psi~ that map at
        most doubles an error, and the bound, far above either side's
        roundoff, is the one psi~ is held to."""
        h = random_pair(h0, h1)
        h0, h1 = pair_matrices(h)
        keep = np.tile(np.isin(range(4), levels), 2)  # of the real and imaginary parts
        # The state and the target at time t.
        psi, psi_d = (random_vector(np.where(keep, v, 0.0), 4) for v in (psi, psi_d))
        u0 = expm(-1j * h0 * t)
        frame, y = dynamics._frame(h, law.kappa, u0.conj().T @ psi, u0.conj().T @ psi_d)
        (_, w), cols = frame[:2]
        dy = np.array(rhs(frame[2], t, *y))

        f_ref = commutator_field(outer(psi), outer(psi_d), h1, law.kappa)
        dy_ref = w.conj().T @ u0.conj().T @ (-1j * f_ref * h1 @ psi)
        scale = (abs(f_ref) + abs(law.kappa) * np.linalg.norm(h1)) * np.linalg.norm(h1)
        if len(cols) == 2:
            assert len(y) == 3
            psi_t = (w.conj().T @ u0.conj().T @ psi)[cols]
            assert np.linalg.norm(dy - bloch_derivative(psi_t, dy_ref[cols])) <= 1e-12 * scale
            assert np.linalg.norm(np.delete(dy_ref, cols)) <= 1e-12 * scale
            return
        assert len(y) == len(cols) == 4
        assert np.linalg.norm(dy - dy_ref) <= 1e-12 * scale

    @pytest.mark.parametrize("label", [label for label, _ in preset_scenarios("figure4")])
    def test_one_phase_per_sector_at_long_times(self, label):
        """Each preset steps one sector, as its Bloch vector r~ (`_frame`).
        `rhs` writes E h E* there as ((h00 + h11)/2) I + n.sigma with
        n = (Re h01 r, -Im h01 r, (h00 - h11)/2) and one factor
        r = exp(i (lam_0 - lam_1) t), against the per-level form
        -i f E h E* psi~, E = diag(exp(i lam t)), mapped to r~ by the
        derivative of `_bloch` (`bloch_derivative`), in long double as the
        exact value, on the preset's frame, for random unit psi~ and its
        rounded r~ at times up to t = 300.

        The bound is derived from the one-factor rounding. Rounding
        lam_0 - lam_1 and then its product with t moves the phase of r by at
        most 2 u |lam_0 - lam_1| t (u the unit roundoff), and cos, sin, the
        products and the sums add a few u, as does rounding r~ from psi~:
        16 u covers them. So n moves by at most |h01| eps <= ||h||_F eps/sqrt(2),
        with eps = 2 u |dlam| t + 16 u, the field f = kappa n.(r~ x d~)
        by kappa times that, and dr~/dt = 2 f (n x r~) by
        sqrt(2) (|f| + kappa |n|) ||h||_F eps <= (|f| + 2 kappa ||h||_F) ||h||_F eps,
        as |n| <= ||h||_F / sqrt(2): the bound psi~'s derivative was held to.
        At t = 300 the phase term is 2.7e-13 for dlam = 4 (local presets)
        and 2.7e-14 for 0.4 (interaction presets). Seen: at most 0.11 of
        the bound on all six."""
        cfg, h, states = preset_states(label)
        law = cfg.law
        frame, _ = dynamics._frame(h, law.kappa, *states)
        (lam, w), cols = frame[:2]
        ext = np.clongdouble
        lam_x = lam[cols].astype(np.longdouble)
        h_x = (w[:, cols].conj().T @ pair_matrices(h)[1] @ w[:, cols]).astype(ext)
        g_x = np.array(frame[3], dtype=ext)
        h_norm = np.linalg.norm(h_x.astype(complex))
        u = 2.0**-53
        rng = np.random.default_rng(23)
        for t in np.linspace(0.0, 300.0, 61) + rng.uniform(0.0, 0.5, 61):
            y = rng.normal(size=len(cols)) + 1j * rng.normal(size=len(cols))
            y /= np.linalg.norm(y)
            dr = np.array(rhs(frame[2], float(t), *dynamics._bloch(*y.tolist())))
            e = np.exp(1j * lam_x * np.longdouble(t))
            v = e * (h_x @ (e.conj() * y.astype(ext)))
            f = 2 * law.kappa * (np.sum(g_x * v) * np.conj(np.sum(g_x * y))).imag
            dr_ref = bloch_derivative(y.astype(ext), -1j * f * v)
            eps = 2 * u * abs(lam_x[0] - lam_x[1]) * t + 16 * u
            bound = (abs(f) + 2 * law.kappa * h_norm) * h_norm * eps
            assert np.max(np.abs(dr - dr_ref.astype(float))) <= bound

    @pytest.mark.parametrize("label", ["figure4_local_k1", "figure4_interaction_k1"])
    def test_bloch_form_matches_psi_form(self, label):
        """On the one-sector frame of a preset of each paradigm, the Bloch
        form of `rhs` against the derivative of psi~ in complex arithmetic
        (`oracles.psi_rhs`, on the coefficients `oracles.psi_coefficients`
        builds from the pair) mapped to r~ (`bloch_derivative`), both in
        double, for random unit psi~ and times up to t = 300.

        The bound is derived. Both forms take the same rounded phase: the
        product w t of the same w = lam_0 - lam_1, then libm's cos and sin
        of it (cmath's exp of an imaginary number takes the two), and both
        form h01 r by the same two products and sum per part, so n is the
        same in both to the last bit and the phase term 2 u |w| t of
        `test_one_phase_per_sector_at_long_times` cancels. What is left is
        the rounding of the products and sums after n: as there, each form
        is within (|f| + 2 kappa ||h||_F) ||h||_F 16 u of the exact
        derivative in each entry, psi~'s in its 2 complex entries and so by
        sqrt(2) that in norm, which the map (norm at most 2 for a unit psi~)
        turns into 2 sqrt(2) times that, and the map's own products and sums
        add 4 u of |dr~| <= 2 |f| ||h||_F. So the two differ by at most
        (1 + 2 sqrt(2) + 1) 16 u (|f| + 2 kappa ||h||_F) ||h||_F, below
        64 u (|f| + 2 kappa ||h||_F) ||h||_F, and |f| <= kappa |n| <=
        kappa ||h||_F / sqrt(2) for unit states: below 192 u kappa ||h||_F²,
        1.7e-15 on local_k1 and 1.7e-13 on interaction_k1. Seen: at most
        0.04 of it."""
        cfg, h, states = preset_states(label)
        frame, _ = dynamics._frame(h, cfg.law.kappa, *states)
        h_norm = np.linalg.norm(psi_coefficients(h, frame)[1:5])
        bound = 192 * 2.0**-53 * cfg.law.kappa * h_norm**2
        rng = np.random.default_rng(29)
        for t in rng.uniform(0.0, 300.0, 200):
            y = rng.normal(size=2) + 1j * rng.normal(size=2)
            y = tuple((y / np.linalg.norm(y)).tolist())
            dr = np.array(rhs(frame[2], t, *dynamics._bloch(*y)))
            dy = psi_rhs(h, frame, cfg.law, t, y)
            assert np.linalg.norm(dr - bloch_derivative(y, dy)) <= bound

    @pytest.mark.parametrize("psi0,width", [(x_state("|++>"), 3), (off_s_state(), 4)],
                             ids=["bloch", "four_amplitudes"])
    def test_negated_gain_negates_every_stage(self, monkeypatch, psi0, width):
        """The gain is `_frame`'s last coefficient, 2 kappa on the Bloch
        vector and -2j kappa on four amplitudes, and one factor of every
        component of `rhs`: at each stage input of a run, the frame of
        -kappa gives the negated derivative exactly, as negating a factor
        commutes with rounding."""
        h, psi_d0 = local_pair(), bell_state(BellName.PHI_PLUS, X_PRODUCT)
        stages = []
        real_rhs = dynamics.rhs

        def recorded(coeffs, t, *y):
            stages.append((t, y))
            return real_rhs(coeffs, t, *y)

        monkeypatch.setattr(dynamics, "rhs", recorded)
        integrate(h, Lyapunov(kappa=2.0), psi0, psi_d0, IntegratorConfig(t_max=5.0))
        (_, _, plus, _), _ = dynamics._frame(h, 2.0, psi0, psi_d0)
        (_, _, minus, _), _ = dynamics._frame(h, -2.0, psi0, psi_d0)
        assert plus[:-1] == minus[:-1] and minus[-1] == -plus[-1]
        assert {len(y) for _, y in stages} == {width} and len(stages) > 100
        for t, y in stages:
            assert real_rhs(minus, t, *y) == tuple(-d for d in real_rhs(plus, t, *y))

    def test_non_hermitian_target_rejected_like_control_field(self, monkeypatch):
        h = local_pair()
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho_d = m @ m.conj().T
        rho_d *= 1j / np.trace(rho_d)  # anti-Hermitian
        # `integrate` takes state vectors, whose feedback trace is imaginary by
        # construction, and rejects a matrix before stepping (`TestBoundary`).
        calls = []
        monkeypatch.setattr(dynamics, "rhs", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"psi_d0 has shape \(4, 4\)"):
            integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), rho_d,
                      IntegratorConfig(t_max=1.0))
        assert calls == []

    def test_target_is_the_exact_free_evolution(self):
        h = local_pair()
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=3.0)
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), psi_d0, cfg)
        free = propagate_exact(h, None, x_state("|++>"), psi_d0, cfg)
        assert np.array_equal(traj.t, free.t)
        assert np.array_equal(traj.rho_d, free.rho_d)


def preset_states(label):
    """A figure4 preset's scenario, pair and initial and target state vectors."""
    cfg = dict(preset_scenarios("figure4"))[label]
    h = hamiltonians(cfg.model, cfg.paradigm)
    return cfg, h, [X_PRODUCT.vector_from_z(v) for v in (cfg.initial_state, cfg.target_state)]


class TestReachedColumns:
    """`_frame` steps the parity sectors of the eigenbasis W of H0 where psi~
    or psi_d~ has weight, S in columns 0 and 1 and its complement in
    columns 2 and 3: 2 amplitudes for one sector, 4 for both."""

    @staticmethod
    def reached(h, psi, psi_d):
        """The stepped columns, and the width of the stepped state: 3 for
        the Bloch vector of one sector, 4 for the amplitudes of both."""
        frame, y = dynamics._frame(h, 1.0, psi, psi_d)
        return list(frame[1]), len(y)

    @pytest.mark.parametrize("label", [label for label, _ in preset_scenarios("figure4")])
    def test_presets_reach_s_alone(self, label):
        _, h, states = preset_states(label)
        assert self.reached(h, *states) == ([0, 1], 3)

    @pytest.mark.parametrize(
        "initial,target,columns",
        [("|00>", "PhiPlus", [0, 1, 2, 3]), ("|++>", "PsiMinus", [0, 1, 2, 3])],
    )
    def test_states_off_s_step_both_sectors(self, initial, target, columns):
        states = [X_PRODUCT.vector_from_z(STATE_LITERALS[s]) for s in (initial, target)]
        assert self.reached(local_pair(), *states) == (columns, 4)

    def test_random_pair_reaches_four(self):
        rng = np.random.default_rng(5)
        h = random_pair(*rng.uniform(-1.0, 1.0, size=(2, 32)))
        e = np.eye(4, dtype=complex)
        assert self.reached(h, e[0], e[0]) == ([0, 1], 3)
        assert self.reached(h, e[0], e[1]) == ([0, 1, 2, 3], 4)
        assert self.reached(h, e[1], e[2]) == ([2, 3], 3)

    @pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
    def test_asymmetric_pair_steps_s_alone(self, paradigm):
        # k != 1 changes the complement's dynamics, not the parity.
        h = hamiltonians(ModelParams(J=1.0, eta=0.1, k=0.5), paradigm)
        states = [X_PRODUCT.vector_from_z(STATE_LITERALS[s]) for s in ("|++>", "PhiPlus")]
        assert self.reached(h, *states) == ([0, 1], 3)

    @pytest.mark.parametrize("label", ["figure4_local_k2", "figure4_interaction_k0.5"])
    def test_bloch_run_matches_four_amplitudes(self, label, monkeypatch):
        """The preset on its one sector, stepped as a Bloch vector, against
        the same run with every sector stepped, as four amplitudes. The two
        are the same DP5(4) pair at the same tolerances on different
        coordinates, so they take different steps, and each is held to the
        DOP853 reference by `TestAgainstDOP853`'s bounds: V and C to 1e-7,
        rho to 5e-8 on a local run and to 1e-8 up to t = 5 on an
        interaction run, after which the interaction runs are
        ill-conditioned (ROADMAP aim 3). So the two agree to twice those
        bounds. Seen: rho 6.9e-9 on local_k2 and 1.2e-9 up to t = 5 on
        interaction_k0.5, V and C within 1.3e-8. Stepped, the S sector of
        the four-amplitude run carries the whole norm less that of the
        sector left out, at most 64 u, which the projection restores to a
        few u."""
        cfg, h, states = preset_states(label)
        two = integrate(h, cfg.law, *states, cfg.integrator)
        monkeypatch.setattr(dynamics, "_SECTOR_WEIGHT", -1.0)
        four = integrate(h, cfg.law, *states, cfg.integrator)
        stats, stats4 = two.metadata.integrator_stats, four.metadata.integrator_stats
        assert (stats.amplitudes, stats4.amplitudes) == (2, 4)
        assert stats.max_sector_drift == 0.0 and stats4.max_sector_drift <= 64 * 2.0**-53
        assert np.array_equal(two.t, four.t)
        for column in ("V", "concurrence"):
            assert np.max(np.abs(getattr(two, column) - getattr(four, column))) <= 2e-7
        rho_tol, until = (5e-8, np.inf) if "local" in label else (1e-8, 5.0)
        early = two.t <= until
        assert np.max(np.abs(two.rho - four.rho)[early]) <= 2 * rho_tol


class TestFromBloch:
    """A one-sector run steps the Bloch vector r~ of psi~, and its samples
    are turned back into psi~ by `_from_bloch`, up to a global phase, for
    the column pass. u = 2^-53 is the unit roundoff."""

    @pytest.mark.parametrize("small", [1e-10, 1e-5, 0.3, 0.7])
    def test_returns_psi_up_to_a_phase(self, small):
        """Each amplitude comes back within 16 u of its modulus, once the
        larger one is taken real and positive, on either side. `_bloch`
        rounds conj(y0) y1 by at most sqrt(5) u |y0| |y1| (a complex
        product) and |y0|² - |y1|² by 3 u N, N = |y0|² + |y1|².
        `_from_bloch` rounds |r~| = N by about 2.5 u more, so
        N + |r~_z| = 2 |y_big|², a sum of two positive terms, by at most
        10 u of it, and y_big = sqrt of its half by at most 6 u. The other
        amplitude, (r_x ± i r_y) / (2 y_big), is then off by sqrt(5) u, 6 u
        and the division's u: within 10 u of its modulus. Seen: 5.6 u."""
        rng = np.random.default_rng(31)
        u = 2.0**-53
        for _ in range(200):
            phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
            psi = np.array([small, np.sqrt(1 - small * small)]) * phases
            for y in (psi, psi[::-1]):  # the small amplitude first, then second
                back = dynamics._from_bloch(np.array([dynamics._bloch(*y.tolist())]))[0]
                big = int(np.argmax(np.abs(y)))
                expected = y * abs(y[big]) / y[big]
                assert back[big].imag == 0.0 and back[big].real > 0.0
                assert np.all(np.abs(back - expected) <= 16 * u * np.abs(y))

    def test_v_keeps_its_relative_accuracy(self):
        """On `figure4_local_k2`'s frame, states at |<psi_d~perp|psi~>| = 1e-10,
        V = 1e-20, where that run's V ends (1e-19), as its Bloch vector and
        back. The target psi_d~ is the eigenvector e_1 of H0 in its sector
        up to a rounded entry of 1.4e-17, below u/4, so the part of psi~ off
        the target, of norm sqrt(V), is its small amplitude y0 to within
        u/4. The rebuild moves y0 by at most 16 u |y0|
        (`test_returns_psi_up_to_a_phase`), so that part by at most
        16 u sqrt(V) + 4 u², and its squared norm by at most
        32 u V + 8 u² sqrt(V) + (16 u sqrt(V) + 4 u²)²; it moves the squared
        norm N by at most 33 u, and with |N - N_d| <= 6 u for the rounded
        unit states the term (N - N_d)²/2 of `_lyapunov` by at most
        (39 u)²/2 < 768 u². `_lyapunov` takes the small part by relative
        operations, a few u of V on each side, and rounds b = <psi_d~|psi~>
        by a few u in the large entry, whose square adds below 64 u².
        So V moves by at most 64 u V + 1024 u², 1.3e-9 of V = 1e-20. Seen:
        at most 3 (u V + u²)."""
        cfg, h, states = preset_states("figure4_local_k2")
        frame, _ = dynamics._frame(h, cfg.law.kappa, *states)
        target = np.array(frame[3])  # conj(psi_d~)
        psi_d = target.conj()
        assert abs(psi_d[0]) <= 2.0**-55
        perp = np.array([-target[1], target[0]])
        rng = np.random.default_rng(37)
        u = 2.0**-53
        for _ in range(200):
            a, b = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
            psi = a * (np.sqrt(1 - 1e-20) * psi_d + 1e-10 * b * perp)
            back = dynamics._from_bloch(np.array([dynamics._bloch(*psi.tolist())]))
            v, v_back = (dynamics._lyapunov(x, target)[0] for x in (psi[None], back))
            assert v == pytest.approx(1e-20, rel=1e-6)
            assert abs(v_back - v) <= 64 * u * v + 1024 * u * u


class TestStateStack:
    """`integrate` takes each sample's state as
    psi = W diag(exp(-i (lam - lam_0) t)) psi~, up to a global phase, and
    rho = psi psi†, one row-wise product over the run. The slow path is the
    matrix form W (P o psi~ psi~†) W†, P_jk = exp(-i (lam_j - lam_k) t), as
    `_evolve` applies it, on the same psi~ samples, lam and W, evaluated in
    long double so that it stands in for the exact value.

    The bound is derived, not fitted. Rounding lam_j - lam_0 and then its
    product with t moves the phase of psi_j by at most 2 u |lam_j - lam_0| t
    (u the unit roundoff), so the phase of entry (j, k) of rho by at most
    4 u s t, s = lam_max - lam_min over the stepped columns (lam is sorted
    within each parity sector, not across them), and the entry by that times
    ||psi~ psi~†||_F = 1; the products add a few u, covered by 1e-15. At
    t = 300 the phase term is 5.3e-13 for s = 4 (local presets) and 5.3e-14
    for s = 0.4 (interaction presets). Seen: at most 0.22 of the bound,
    5.5e-15 at t = 80 on `figure4_local_k0.5` and 7.5e-15 at t = 300 on the
    interaction presets."""

    @staticmethod
    def stepped(monkeypatch, h, law, psi0, psi_d0, cfg):
        taken = []

        def spy(*args):
            out = dp5(*args)
            taken.append(out[0])
            return out

        dp5 = dynamics._dp5
        monkeypatch.setattr(dynamics, "_dp5", spy)
        traj = integrate(h, law, psi0, psi_d0, cfg)
        # `_frame` is deterministic: the eigenbasis and columns the run stepped.
        (lam, w), cols = dynamics._frame(h, law.kappa, psi0, psi_d0)[0][:2]
        (psi,) = taken
        return traj, lam[cols], w[:, cols], psi[: len(traj)]

    def check(self, traj, lam, w, psi):
        ext = np.longdouble
        lam_x, w_x, psi_x = lam.astype(ext), w.astype(np.clongdouble), psi.astype(np.clongdouble)
        gaps = -1j * np.subtract.outer(lam_x, lam_x)
        phases = np.exp(np.multiply.outer(traj.t.astype(ext), gaps))
        slow = w_x @ (phases * psi_x[:, :, None] * psi_x[:, None, :].conj()) @ w_x.conj().T
        # The slow path rounds its phases too, by 2 u' s t (u' the long double's roundoff).
        u, u_ext = 2.0**-53, np.finfo(ext).eps / 2
        tol = 1e-15 + (4 * u + 2 * u_ext) * np.ptp(lam) * traj.t
        assert np.all(np.max(np.abs(traj.rho - slow), axis=(1, 2)) <= tol)

    @pytest.mark.parametrize("label", [label for label, _ in preset_scenarios("figure4")])
    def test_preset_matches_matrix_form(self, label, monkeypatch):
        cfg = dict(preset_scenarios("figure4"))[label]
        h = hamiltonians(cfg.model, cfg.paradigm)
        psi0, psi_d0 = (X_PRODUCT.vector_from_z(s) for s in (cfg.initial_state, cfg.target_state))
        self.check(*self.stepped(monkeypatch, h, cfg.law, psi0, psi_d0, cfg.integrator))

    @pytest.mark.parametrize("paradigm", list(Paradigm), ids=lambda p: p.value)
    def test_two_sector_run_matches_matrix_form(self, paradigm, monkeypatch):
        # From |0+> towards Phi+: both sectors, four amplitudes.
        h = hamiltonians(P, paradigm)
        psi0, psi_d0 = (X_PRODUCT.vector_from_z(v)
                        for v in (np.array([1, 1, 0, 0]) / np.sqrt(2), STATE_LITERALS["PhiPlus"]))
        cfg = IntegratorConfig(t_max=20.0)
        traj, lam, w, psi = self.stepped(monkeypatch, h, Lyapunov(kappa=1.0), psi0, psi_d0, cfg)
        assert psi.shape[1] == 4
        self.check(traj, lam, w, psi)


class TestClosedLoopDescent:
    @settings(max_examples=50, deadline=None)
    @given(
        kappa=st.floats(0.0, 3.0, exclude_min=True),
        paradigm=st.sampled_from(list(Paradigm)),
        t_max=st.floats(0.5, 5.0),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16).filter(
            lambda a: np.linalg.norm(a[:8]) > 0.1 and np.linalg.norm(a[8:]) > 0.1
        ),
    )
    def test_v_never_rises(self, kappa, paradigm, t_max, amps):
        h = hamiltonians(P, paradigm)
        psi0, psi_d0 = random_pure_state(amps[:8]), random_pure_state(amps[8:])
        traj = integrate(h, Lyapunov(kappa=kappa), psi0, psi_d0, IntegratorConfig(t_max=t_max))
        assert np.max(np.diff(traj.V)) <= 1e-8


class TestAgainstDOP853:
    """`integrate` at default tolerances against scipy's DOP853 at rtol 1e-13
    on the density matrix in the same frame (`vec_frame`, `vec_rhs`): an
    independent state, derivative, stepper and interpolant, and an
    independent `expm` out of the frame."""

    @pytest.mark.parametrize(
        "label,rho_tol,rho_until",
        [
            ("figure4_local_k2", 5e-8, np.inf),
            # After t ~ 5 this run is ill-conditioned: DOP853 references at
            # rtol 1e-11 and 1e-13 part there by 5.7e-6 in rho.
            ("figure4_interaction_k2", 1e-8, 5.0),
        ],
    )
    def test_preset_matches_reference(self, label, rho_tol, rho_until):
        self.check(dict(preset_scenarios("figure4"))[label], 2, rho_tol, rho_until)

    def test_four_amplitude_run_matches_reference(self):
        # From |0+> = (|00> + |01>)/sqrt(2) the local pair reaches all four
        # eigen-amplitudes of H0, so the run takes the 4-amplitude attempt,
        # which no preset takes; the feedback is on, with V from 0.75 to 0.5.
        # The bounds are local_k2's: the same stepper at the same tolerances.
        cfg = dict(preset_scenarios("figure4"))["figure4_local_k2"]
        cfg = dataclasses.replace(
            cfg, initial_state=np.array([1, 1, 0, 0]) / np.sqrt(2),
            integrator=dataclasses.replace(cfg.integrator, t_max=30.0),
        )
        self.check(cfg, 4, 5e-8, np.inf)

    @staticmethod
    def check(cfg, amplitudes, rho_tol, rho_until):
        law = cfg.law
        h = hamiltonians(cfg.model, cfg.paradigm)
        psi0 = X_PRODUCT.vector_from_z(cfg.initial_state)
        psi_d0 = X_PRODUCT.vector_from_z(cfg.target_state)
        traj = integrate(h, law, psi0, psi_d0, cfg.integrator)
        assert traj.metadata.integrator_stats.amplitudes == amplitudes

        frame, y = vec_frame(h, np.stack([outer(psi0), outer(psi_d0)]))
        ref = solve_ivp(lambda t, y: vec_rhs(frame, law, t, y), (0.0, traj.t[-1]), y,
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=traj.t)
        assert ref.success
        w = frame[0]
        h0, h1 = pair_matrices(h)
        rho = np.empty_like(traj.rho)
        for i, (t, y_t) in enumerate(zip(traj.t, ref.y.T)):
            u = expm(-1j * h0 * t) @ w
            rho[i] = u @ y_t.reshape(4, 4) @ u.conj().T

        assert np.max(np.abs(traj.V - lyapunov_value(rho, traj.rho_d))) <= 1e-7
        assert np.max(np.abs(traj.concurrence - concurrence(rho, X_PRODUCT))) <= 1e-7
        early = traj.t <= rho_until
        assert np.max(np.abs(traj.rho - rho)[early]) <= rho_tol
        f = commutator_field(traj.rho, traj.rho_d, h1, law.kappa)
        assert np.max(np.abs(traj.f - f)) <= 1e-14


class TestPsiColumns:
    """`integrate` takes every column from the samples of psi~ and the frame;
    the slow path is each column's density-matrix function on the
    Trajectory's rho and rho_d: `lyapunov_value`, `commutator_field`,
    `concurrence`, `subspace_populations`, Tr(rho rho_d) and Tr(rho²). Both
    sides round each entry by a few u (u = 2^-53) relative to the unit
    states, and the W of both rotations is unitary to 10 u, so the columns
    agree to 1e-14 (seen: at most 2.4e-15, p_S). V's trace form keeps an
    absolute accuracy of about u ||rho - rho_d||_F, 6e-26 at V = 1.5e-19, and
    the perpendicular form a relative one of about u / sqrt(V), so where
    V < 1e-9 they agree to 1e-5 relative (seen: 5.4e-7)."""

    @staticmethod
    def check(traj, h):
        law, rho, rho_d = traj.metadata.law, traj.rho, traj.rho_d
        slow = {
            "V": lyapunov_value(rho, rho_d),
            "f": commutator_field(rho, rho_d, pair_matrices(h)[1], law.kappa),
            "concurrence": concurrence(rho, X_PRODUCT),
            "p_S": subspace_populations(rho)[0],
            "fidelity": np.array([np.trace(r @ r_d).real for r, r_d in zip(rho, rho_d)]),
            "purity": np.array([np.trace(r @ r).real for r in rho]),
        }
        worst = {name: np.max(np.abs(getattr(traj, name) - col)) for name, col in slow.items()}
        assert max(worst.values()) <= 1e-14, worst
        small = slow["V"] < 1e-9
        assert np.all(np.abs(traj.V - slow["V"])[small] <= 1e-5 * slow["V"][small])
        return int(small.sum())

    def test_presets(self, lyapunov_runs):
        # The six Lyapunov presets of figure2 and figure3 are the six of figure4.
        small = 0
        for label, (traj, _) in sorted(lyapunov_runs.items()):
            meta = traj.metadata
            small += self.check(traj, hamiltonians(meta.params, meta.paradigm))
        assert small > 0  # the relative bound on V is exercised

    def test_four_amplitude_run(self):
        # From |0+> towards Phi+: both sectors (TestAgainstDOP853's run).
        h = local_pair()
        psi0 = X_PRODUCT.vector_from_z(np.array([1, 1, 0, 0]) / np.sqrt(2))
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = integrate(h, Lyapunov(kappa=2.0), psi0, psi_d0, IntegratorConfig(t_max=30.0))
        assert traj.metadata.integrator_stats.amplitudes == 4
        self.check(traj, h)


class TestIntegratorStats:
    def test_field_names(self):
        assert [f.name for f in dataclasses.fields(IntegratorStats)] == [
            "accepted", "rejected", "rhs_evals", "h_min", "h_max", "h_median",
            "max_norm_drift", "max_sector_drift", "amplitudes",
        ]
        meta = dataclasses.fields(TrajectoryMetadata)[-1]
        assert (meta.name, meta.default) == ("integrator_stats", None)

    @pytest.mark.parametrize(
        "psi0,amplitudes",
        [(x_state("|++>"), 2), (off_s_state(), 4)],
        ids=["two_amplitudes", "three_columns"],
    )
    def test_counts_every_rhs_call(self, monkeypatch, psi0, amplitudes):
        # Both widths of the attempt go through the module-level `rhs`; the
        # benchmark's traced runs count on rhs_evals = 6 * attempts + 1 there.
        calls = []
        real_rhs = dynamics.rhs

        def counted(*args):
            calls.append(args)
            return real_rhs(*args)

        monkeypatch.setattr(dynamics, "rhs", counted)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        # The first trial step, sample_every / 10 = 2.0, is too long for the
        # tolerance, so some attempts fail.
        cfg = IntegratorConfig(t_max=4.0, sample_every=20.0)
        traj = integrate(local_pair(), Lyapunov(kappa=2.0), psi0, psi_d0, cfg)
        stats = traj.metadata.integrator_stats
        assert stats.amplitudes == amplitudes
        assert stats.rejected > 0
        assert 0.0 < stats.h_min <= stats.h_max <= cfg.t_max
        assert stats.rhs_evals == len(calls) == 6 * (stats.accepted + stats.rejected) + 1

    def test_steps_are_not_clipped_to_the_sample_grid(self, monkeypatch):
        # Under interaction control the feedback dies out by t ~ 5, and from
        # then on the tolerance allows steps far longer than the 0.1 grid.
        calls = []
        real_rhs = dynamics.rhs

        def counted(*args):
            calls.append(args)
            return real_rhs(*args)

        monkeypatch.setattr(dynamics, "rhs", counted)
        h = hamiltonians(P, Paradigm.INTERACTION_CONTROL)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=30.0)
        traj = integrate(h, Lyapunov(kappa=2.0), x_state("|++>"), psi_d0, cfg)
        stats = traj.metadata.integrator_stats
        assert len(traj) == 301
        # A step clipped to the grid exceeds sample_every only by roundoff.
        assert stats.h_max > 5 * cfg.sample_every
        assert stats.accepted < len(traj) - 1
        assert stats.rhs_evals == len(calls) == 6 * (stats.accepted + stats.rejected) + 1

    def test_sector_drift_inside_the_stepper_error(self):
        """|0+> towards Phi+ under local control at kappa = 2 steps both
        sectors (TestAgainstDOP853's four-amplitude run), and p_S = 1/2 is
        a constant of its exact flow. A step whose error estimate passes
        moves each amplitude by at most 2 (atol + rtol) (the RMS over four
        levels is at most 1, for amplitudes of modulus below 1), so the two
        of S change its squared norm by at most 4 (atol + rtol) for a unit
        state, and a run by the sum over its accepted steps. Seen: 4.6e-11
        after 493 steps, against 2.0e-6; the p_S column drifts by 5.6e-11."""
        h = local_pair()
        psi0 = X_PRODUCT.vector_from_z(np.array([1, 1, 0, 0]) / np.sqrt(2))
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        cfg = IntegratorConfig(t_max=30.0)
        traj = integrate(h, Lyapunov(kappa=2.0), psi0, psi_d0, cfg)
        stats = traj.metadata.integrator_stats
        bound = stats.accepted * 4 * (cfg.abs_tol + cfg.rel_tol)
        assert stats.amplitudes == 4
        assert 0.0 < stats.max_sector_drift <= bound
        assert np.max(np.abs(traj.p_S - 0.5)) <= bound

    def test_median_step(self):
        # The field vanishes from Phi- towards Phi+ (`test_stalled_run_detected`),
        # so every step's error is below the tolerance and each step is 5 times
        # the last, from sample_every / 10 = 0.01 until t_max clips one: 0.01,
        # 0.05, 0.25, 1.25, 6.25, then 10 - 7.81 = 2.19. The median of six is
        # the mean of the middle two, 0.25 and 1.25.
        psi0 = bell_state(BellName.PHI_MINUS, X_PRODUCT)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        traj = integrate(local_pair(), Lyapunov(kappa=1.0), psi0, psi_d0,
                         IntegratorConfig(t_max=10.0))
        stats = traj.metadata.integrator_stats
        assert (stats.accepted, stats.rejected) == (6, 0)
        assert stats.h_min == pytest.approx(0.01, rel=1e-12)
        assert stats.h_max == pytest.approx(6.25, rel=1e-12)
        assert stats.h_median == pytest.approx(0.75, rel=1e-12)

    def test_no_median_without_a_step(self):
        # Towards Phi+ the state moves (towards |--> it rests, and every step is
        # exact), so no step meets these tolerances: attempts shrink to the floor.
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        (_, _, coeffs, target), y = dynamics._frame(local_pair(), 1.0, x_state("|++>"), psi_d0)
        cfg = IntegratorConfig(t_max=1.0, rel_tol=1e-300, abs_tol=1e-300)
        samples, stats, error = dynamics._dp5(coeffs, np.array(target), y,
                                              dynamics._sample_grid(cfg), cfg)
        assert isinstance(error, IntegrationError) and len(samples) == 1
        assert (stats.accepted, stats.h_min, stats.h_max, stats.h_median) == (0, None, None, None)

    def test_none_on_exact_path(self):
        traj = propagate_exact(local_pair(), Geometric(t0=0.5), x_state("|++>"),
                               x_state("|-->"), IntegratorConfig(t_max=1.0))
        assert traj.metadata.integrator_stats is None


class TestTimeScale:
    """A run in time units scaled by c, (J, kappa, t_max, sample_every) ->
    (c J, kappa / c, t_max / c, sample_every / c), is the same run: H0 and H1
    scale by c, the field 2 kappa Im(<psi_d|H1 psi><psi|psi_d>) does not,
    and `_dp5` takes its first trial step and its step-size floor from
    sample_every (ROADMAP item 5). For c a power of two, scaling is exact and
    commutes with every rounding while nothing overflows or underflows, so
    the samples are those of the unscaled run bit for bit, at times t / c."""

    LABELS = ("figure2_k1", "figure3_k1")

    @staticmethod
    def run(label, c):
        cfg = dict(preset_scenarios(label.split("_")[0]))[label]
        p, law = cfg.model, cfg.law
        h = hamiltonians(ModelParams(J=p.J * c, eta=p.eta, k=p.k), cfg.paradigm)
        icfg = IntegratorConfig(t_max=60.0 / c, sample_every=cfg.integrator.sample_every / c)
        psi0, psi_d0 = (X_PRODUCT.vector_from_z(v) for v in (cfg.initial_state, cfg.target_state))
        return integrate(h, Lyapunov(kappa=law.kappa / c), psi0, psi_d0, icfg)

    @pytest.fixture(scope="class")
    def unscaled(self):
        return {label: self.run(label, 1.0) for label in self.LABELS}

    @pytest.mark.parametrize("c", [2.0**-20, 2.0**10, 2.0**40], ids=["2^-20", "2^10", "2^40"])
    @pytest.mark.parametrize("label", LABELS)
    def test_power_of_two_is_bit_identical(self, unscaled, label, c):
        base, traj = unscaled[label], self.run(label, c)
        assert np.array_equal(traj.t * c, base.t)
        for column in ("V", "f", "concurrence", "fidelity"):
            assert np.array_equal(getattr(traj, column), getattr(base, column)), column
        stats = traj.metadata.integrator_stats
        assert dataclasses.replace(
            stats, h_min=stats.h_min * c, h_max=stats.h_max * c, h_median=stats.h_median * c
        ) == base.metadata.integrator_stats

    @pytest.mark.parametrize("label", LABELS)
    def test_other_scales_agree_to_roundoff(self, unscaled, label):
        """At c = 1e12, kappa / c, t_max / c and sample_every / c round, and
        every product of a scaled time and a scaled rate rounds at another
        place than in the unscaled run. An accepted step's update and its
        projection then differ by a few rounding errors of the unit state:
        at most 4 u in psi~ (u = 2^-53), and V = ||psi~ - psi_d~ b||² moves by
        at most 4 times that. Summed over the accepted steps, with no growth
        between them, |dV| <= 16 u N. Seen: 5.8e-16 over 1,059 steps on
        figure2_k1 and 1.7e-16 over 275 on figure3_k1, against 1.9e-12 and
        4.9e-13."""
        base, traj = unscaled[label], self.run(label, 1e12)
        bound = 16 * 2.0**-53 * base.metadata.integrator_stats.accepted
        assert np.allclose(traj.t * 1e12, base.t, rtol=4 * 2.0**-53, atol=0.0)
        assert np.max(np.abs(traj.V - base.V)) <= bound


def nan_stage(dy):
    """A stage made NaN on purpose."""
    return tuple(x * np.nan for x in dy)


def overflow_stage(dy):
    """A stage of finite entries whose error norm overflows: 1e160 each, of
    the type of the stage's entries (float on a Bloch vector, complex on
    psi~)."""
    return tuple(0 * x + 1e160 for x in dy)


class TestBoundary:
    """Both propagators take unit 4-vectors in XProduct coordinates and
    reject anything else, a density matrix included, with a ValueError
    before any work: no `_dp5` step and no `_evolve`."""

    @pytest.mark.parametrize(
        "propagate,law", [(integrate, Lyapunov(kappa=1.0)), (propagate_exact, Geometric(t0=0.5))],
        ids=["integrate", "exact"],
    )
    @pytest.mark.parametrize("side", ["psi0", "psi_d0"])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (outer(np.full(4, 0.5)), r"{side} has shape \(4, 4\): state and Hamiltonian dim"),
            (np.full(3, 3**-0.5), r"{side} has shape \(3,\)"),
            (0.9 * np.eye(4)[0], "state vector norm 0.9 deviates from 1"),
            (np.array([np.nan, 0, 0, 0]), "state vector norm nan deviates from 1"),
            (np.array([np.inf, 0, 0, 0]), "state vector norm inf deviates from 1"),
        ],
        ids=["matrix", "length_3", "norm_0.9", "nan", "inf"],
    )
    def test_rejects_before_any_work(self, monkeypatch, propagate, law, side, bad, message):
        calls = []
        for name in ("_dp5", "_evolve"):
            monkeypatch.setattr(dynamics, name, lambda *args, name=name: calls.append(name))
        states = {"psi0": x_state("|++>"), "psi_d0": x_state("|-->"), side: bad}
        with pytest.raises(ValueError, match=message.format(side=side)):
            propagate(local_pair(), law, states["psi0"], states["psi_d0"],
                      IntegratorConfig(t_max=1.0))
        assert calls == []


class TestMidRunErrors:
    """Errors raised while stepping pass through, with the time they were
    raised at. Each test runs a state of each width that `_dp5` writes its
    attempt out for: two amplitudes, stepped as their Bloch vector (3
    floats), and four."""

    widths = [(x_state("|++>"), 3), (off_s_state(), 4)]

    @staticmethod
    def failing_after(monkeypatch, t_fail, fail):
        """Patch `rhs` to pass its stages after t_fail through fail; the set
        of state widths it is called with."""
        real_rhs, widths = dynamics.rhs, set()

        def rhs_failing(coeffs, t, *y):
            widths.add(len(y))
            dy = real_rhs(coeffs, t, *y)
            if t > t_fail:
                return fail(dy)
            return dy

        monkeypatch.setattr(dynamics, "rhs", rhs_failing)
        return widths

    def test_underflow_names_last_accepted_step(self):
        for psi0, width in self.widths:
            with pytest.MonkeyPatch.context() as patch:
                widths = self.failing_after(patch, 0.35, nan_stage)
                with pytest.raises(IntegrationError, match="step size underflow") as excinfo:
                    integrate(local_pair(), Lyapunov(kappa=1.0), psi0, x_state("|-->"),
                              IntegratorConfig(t_max=1.0))
            assert widths == {width}
            assert excinfo.value.t == pytest.approx(0.35, abs=1e-6)
            assert "last accepted step h=" in str(excinfo.value)
            assert f"ending at t={excinfo.value.t:.6g}" in str(excinfo.value)

    @pytest.mark.parametrize(
        "psi0,width", widths, ids=["two_amplitudes", "four_amplitudes"],
    )
    def test_overflowing_attempt_is_rejected(self, monkeypatch, psi0, width):
        # Every attempt's FSAL stage (rhs calls 7, 13, ...) is finite but so
        # large that the squared error overflows to inf: each attempt is
        # rejected, as a NaN one is, until the step size underflows. Two
        # amplitudes are stepped as their Bloch vector, 3 floats wide.
        calls, widths = [], set()
        real_rhs = dynamics.rhs

        def overflowing(coeffs, t, *y):
            calls.append(t)
            widths.add(len(y))
            dy = real_rhs(coeffs, t, *y)
            return overflow_stage(dy) if len(calls) > 1 and len(calls) % 6 == 1 else dy

        monkeypatch.setattr(dynamics, "rhs", overflowing)
        psi_d0 = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        with pytest.raises(IntegrationError, match="last accepted step none"):
            integrate(local_pair(), Lyapunov(kappa=1.0), psi0, psi_d0,
                      IntegratorConfig(t_max=1.0))
        assert widths == {width}
        assert len(calls) % 6 == 1 and len(calls) > 7

    def test_underflow_with_no_accepted_step(self):
        for psi0, width in self.widths:
            with pytest.MonkeyPatch.context() as patch:
                widths = self.failing_after(patch, np.inf, nan_stage)  # never fails
                with pytest.raises(IntegrationError, match="last accepted step none"):
                    integrate(local_pair(), Lyapunov(kappa=1.0), psi0,
                              bell_state(BellName.PHI_PLUS, X_PRODUCT),
                              IntegratorConfig(t_max=1.0, rel_tol=1e-300, abs_tol=1e-300))
            assert widths == {width}

    def test_value_error_passes_through_on_valid_samples(self):
        def fail(dy):
            raise ValueError("bad field")

        for psi0, width in self.widths:
            with pytest.MonkeyPatch.context() as patch:
                widths = self.failing_after(patch, 0.35, fail)
                with pytest.raises(ValueError, match="bad field"):
                    integrate(local_pair(), Lyapunov(kappa=1.0), psi0, x_state("|-->"),
                              IntegratorConfig(t_max=1.0))
            assert widths == {width}


def traced_integrate(*args):
    """integrate(*args), with what `_dp5` returned: the psi~ samples, stats
    and error, and the arguments of each `_dense_samples` call."""
    dense_calls, returned = [], []
    real_dense, real_dp5 = dynamics._dense_samples, dynamics._dp5

    def dense(*a):
        dense_calls.append(a)
        return real_dense(*a)

    def dp5(*a):
        returned.append(real_dp5(*a))
        return returned[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_dense_samples", dense)
        patch.setattr(dynamics, "_dp5", dp5)
        traj = integrate(*args)
    return traj, returned[0], dense_calls


def phi_plus_run(psi0, v_stop=None):
    """psi0 towards Phi+ under local control at kappa = 2 over t <= 60."""
    return (local_pair(), Lyapunov(kappa=2.0), psi0, bell_state(BellName.PHI_PLUS, X_PRODUCT),
            IntegratorConfig(t_max=60.0, v_stop=v_stop))


def four_amplitude_run(v_stop=None):
    """`off_s_state` towards Phi+: V falls from 0.68 and passes 0.5 at t = 12.4."""
    return phi_plus_run(off_s_state(), v_stop)


def preset_run(label, v_stop=None):
    cfg, h, states = preset_states(label)
    return (h, cfg.law, *states, dataclasses.replace(cfg.integrator, v_stop=v_stop))


class TestDenseSamples:
    """`_dp5` only steps; its samples come from one numpy pass over the step
    table, `_dense_samples`, which must give bit for bit the continuous
    extension that the scalar formula gives (`oracles.dense_samples_reference`),
    on the Bloch vector of one sector (real rows, each then turned into psi~
    by `_from_bloch`) and on the four amplitudes of both."""

    @pytest.mark.parametrize("run", [
        preset_run("figure4_local_k0.5"), preset_run("figure4_interaction_k2"),
        four_amplitude_run(),
    ], ids=["local_k0.5", "interaction_k2", "four_amplitudes"])
    def test_matches_the_scalar_formula(self, run):
        traj, (samples, stats, _), calls = traced_integrate(*run)
        (spans, table, grid, first, norm0), = calls  # no v_stop: one pass after stepping
        assert first == 1 and len(samples) == len(traj) == len(grid)
        assert len(samples[0]) == stats.amplitudes
        dense = dynamics._dense_samples(spans, table, grid, first, norm0)
        expected = np.array(dense_samples_reference(spans, table, grid, norm0))
        assert expected.tobytes() == dense.tobytes()
        if stats.amplitudes == 2:
            assert dense.dtype == float and dense.shape[1] == 3
            dense = dynamics._from_bloch(dense)
        assert dense.tobytes() == samples[1:].tobytes()
        assert np.diff([1] + spans[2::3]).min() >= 1  # every stored step passes a sample

    def test_long_steps_pass_many_samples(self):
        _, (_, stats, _), ((spans, *_),) = traced_integrate(*preset_run("figure4_interaction_k2"))
        assert np.diff([1] + spans[2::3]).max() > 10
        assert len(spans) // 3 < stats.accepted


class TestVStopCut:
    """With v_stop set, `_dp5` keeps stepping between its looks at the new
    samples, every _V_STOP_BATCH accepted steps, and then cuts the run back
    to the step that passed the first sample below v_stop: samples,
    IntegratorStats and errors read as if stepping had stopped after that
    step."""

    runs = {"local_k2": lambda v=1e-8: preset_run("figure4_local_k2", v),
            "four_amplitudes": lambda v=0.5: four_amplitude_run(v)}

    @staticmethod
    def stepped_to_the_cut(run):
        """The run with a look after every accepted step, which stops
        stepping at the cut step, and the times of all its `rhs` calls."""
        times = []
        real_rhs = dynamics.rhs

        def recorded(coeffs, t, *y):
            times.append(t)
            return real_rhs(coeffs, t, *y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_V_STOP_BATCH", 1)
            patch.setattr(dynamics, "rhs", recorded)
            traj = integrate(*run)
        return traj, times

    @pytest.mark.parametrize("name", list(runs))
    def test_cut_run_is_the_uncut_run_up_to_the_cut(self, name):
        cut, (cut_samples, stats, _), _ = traced_integrate(*self.runs[name]())
        whole, (samples, whole_stats, _), _ = traced_integrate(*self.runs[name](None))
        n = len(cut)
        assert n < len(whole)
        v_stop = self.runs[name]()[-1].v_stop
        assert cut.V[-1] < v_stop <= np.min(cut.V[1:-1])
        assert cut_samples.tobytes() == samples[:n].tobytes()
        for column in ("t", "f", "V", "concurrence", "fidelity", "p_S", "purity"):
            assert getattr(cut, column).tobytes() == getattr(whole, column)[:n].tobytes(), column
        # A look after every step stops stepping at the cut step, so its stats
        # are those of the steps up to it; they count every rhs call it made.
        stopped, times = self.stepped_to_the_cut(self.runs[name]())
        assert stopped.metadata.integrator_stats == stats
        assert stats.rhs_evals == len(times)
        assert stats.accepted < whole_stats.accepted
        assert max(times) < cut.t[-1] + stats.h_max

    @pytest.mark.parametrize("batch", [1, 5, 64, 10**9])
    def test_looks_do_not_move_the_cut(self, batch):
        # On both widths: |++> steps its Bloch vector, and V passes 0.1 at t = 13.8.
        amplitudes = []
        for run in phi_plus_run(x_state("|++>"), 0.1), self.runs["four_amplitudes"]():
            reference, (samples, stats, _), _ = traced_integrate(*run)
            amplitudes.append(stats.amplitudes)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "_V_STOP_BATCH", batch)
                traj, (batch_samples, batch_stats, _), calls = traced_integrate(*run)
            assert batch_samples.tobytes() == samples.tobytes()
            assert batch_stats == stats
            assert traj.V.tobytes() == reference.V.tobytes()
            assert (len(calls) > 1) == (batch < stats.accepted)
            assert reference.V[-1] < run[-1].v_stop < reference.V[1]
        assert amplitudes == [2, 4]

    @pytest.mark.parametrize("name", list(runs))
    @pytest.mark.parametrize("fail", [nan_stage, "ValueError"], ids=["nan", "ValueError"])
    def test_error_after_the_cut_is_dropped(self, monkeypatch, name, fail):
        clean, (samples, stats, _), _ = traced_integrate(*self.runs[name]())
        _, times = self.stepped_to_the_cut(self.runs[name]())
        t_cut = max(times)  # the FSAL stage of the cut step, at its end
        failed = []
        real_rhs = dynamics.rhs

        def failing(coeffs, t, *y):
            dy = real_rhs(coeffs, t, *y)
            if t > t_cut:
                failed.append(t)
                if fail == "ValueError":
                    raise ValueError("bad field")
                return fail(dy)
            return dy

        monkeypatch.setattr(dynamics, "rhs", failing)
        traj, (cut_samples, cut_stats, error), _ = traced_integrate(*self.runs[name]())
        assert failed, "stepping went past the cut step before the look"
        assert error is None
        assert cut_samples.tobytes() == samples.tobytes() and cut_stats == stats
        assert traj.V.tobytes() == clean.V.tobytes()

    @pytest.mark.parametrize("name", list(runs))
    def test_error_before_the_cut_surfaces(self, monkeypatch, name):
        clean = integrate(*self.runs[name]())
        t_fail = 0.5 * clean.t[-1]
        TestMidRunErrors.failing_after(monkeypatch, t_fail, nan_stage)
        with pytest.raises(IntegrationError, match="step size underflow") as excinfo:
            integrate(*self.runs[name]())
        assert t_fail - clean.metadata.integrator_stats.h_max < excinfo.value.t <= t_fail
