"""Unit tests for the adaptive coupled integrator and the exact open-loop
propagator.

Test classes whose cases hold for any propagator take it from the class
attribute ``propagate`` (the DP5(4) ``integrate``); each has an ``...Exact``
subclass that reruns the same cases through ``propagate_exact``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bellsteer import dynamics
from bellsteer.control import (
    Geometric,
    Lyapunov,
    control_field,
    lyapunov_value,
)
from bellsteer.dynamics import (
    IntegrationError,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    TrajectoryMetadata,
    geometric_evolve,
    integrate,
    propagate_exact,
    rhs,
)
from bellsteer.experiments import preset_scenarios
from bellsteer.linalg import expm, hs_norm, outer
from bellsteer.metrics import concurrence
from bellsteer.model import (
    BellName,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    bell_state,
    hamiltonians,
    subspace_reduce,
)

P = ModelParams(J=1.0, eta=0.1)
TIGHT = dict(rel_tol=1e-11, abs_tol=1e-13)


def local_pair():
    return hamiltonians(P, Paradigm.LOCAL_CONTROL, X_PRODUCT)


def x_state(name):
    idx = {"|++>": 0, "|-->": 3}[name]
    v = np.zeros(4, dtype=complex)
    v[idx] = 1.0
    return outer(v)


class TestIntegratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_max=0.0),
            dict(t_max=10.0, dt=-0.1),
            dict(t_max=10.0, rel_tol=0.0),
            dict(t_max=10.0, sample_every=0.0),
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
            dict(t_max=10.0, dt=float("nan")),
            dict(t_max=10.0, abs_tol=float("inf")),
            dict(t_max=10.0, v_stop=float("nan")),
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**kwargs)


class TestSampling:
    propagate = staticmethod(integrate)

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
            self.propagate(h, None, np.eye(2, dtype=complex) / 2, x_state("|-->"),
                           IntegratorConfig(t_max=1.0))

    def test_v_stop_keeps_first_sample_below(self):
        # V of |++> against Phi+ falls from 0.5 to 0.401 while the field is on;
        # 0.449 at t=0.4 is the first sample under 0.45.
        h = local_pair()
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        cfg = IntegratorConfig(t_max=4.0, v_stop=0.45)
        traj = self.propagate(h, Geometric(t0=2.0), x_state("|++>"), rho_d0, cfg)
        assert traj.t[-1] == pytest.approx(0.4)
        assert traj.V[-1] < 0.45
        assert np.all(traj.V[:-1] >= 0.45)


class TestSamplingExact(TestSampling):
    propagate = staticmethod(propagate_exact)


class TestFreeEvolution:
    def test_matches_matrix_exponential(self):
        h = local_pair()
        rho0 = outer(np.full(4, 0.5, dtype=complex))  # |00> in X coordinates
        cfg = IntegratorConfig(t_max=10.0, **TIGHT)
        traj = integrate(h, None, rho0, x_state("|++>"), cfg)
        assert np.all(traj.f == 0.0)
        for i in (13, 57, 100):
            exact = geometric_evolve(h.h0, rho0, float(traj.t[i]))
            assert hs_norm(traj.rho[i] - exact) < 1e-9

    def test_target_always_drifts_under_h0(self):
        h = local_pair()
        rho_d0 = outer(bell_state(BellName.PHI_MINUS, X_PRODUCT))
        cfg = IntegratorConfig(t_max=5.0, **TIGHT)
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), rho_d0, cfg)
        exact = geometric_evolve(h.h0, rho_d0, float(traj.t[-1]))
        assert hs_norm(traj.rho_d[-1] - exact) < 1e-9


class TestGeometricRuns:
    propagate = staticmethod(integrate)

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
        rho0 = outer(np.full(4, 0.5, dtype=complex))
        law = Geometric(t0=2.0)
        cfg = IntegratorConfig(t_max=5.0, **TIGHT)
        traj = self.propagate(h, law, rho0, x_state("|++>"), cfg)
        at_t0 = geometric_evolve(h.h0 + h.h1, rho0, 2.0)
        exact_end = geometric_evolve(h.h0, at_t0, 3.0)
        assert hs_norm(traj.rho[-1] - exact_end) < 1e-9

    def test_geometric_evolve_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            geometric_evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2) / 2, 1.0)


class TestGeometricRunsExact(TestGeometricRuns):
    propagate = staticmethod(propagate_exact)
    test_geometric_evolve_rejects_non_hermitian = None  # no propagator involved


class TestLyapunovRuns:
    def test_descent_and_flags(self):
        h = local_pair()
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), rho_d0,
                         IntegratorConfig(t_max=20.0))
        assert np.all(np.diff(traj.V) <= 1e-10)
        assert not traj.metadata.stalled
        assert traj.metadata.paradigm is Paradigm.LOCAL_CONTROL

    def test_stalled_run_detected(self):
        # From the phase-flipped Bell state the feedback vanishes identically
        # while V stays at a constant positive value.
        h = local_pair()
        rho0 = outer(bell_state(BellName.PHI_MINUS, X_PRODUCT))
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        traj = integrate(h, Lyapunov(kappa=1.0), rho0, rho_d0,
                         IntegratorConfig(t_max=10.0))
        assert traj.metadata.stalled
        assert np.max(np.abs(traj.f)) <= 1e-14
        assert np.all(np.abs(traj.V - traj.V[0]) < 1e-9)
        assert traj.V[0] == pytest.approx(1.0)

    def test_sign_flip_steers_to_phase_flipped_target(self):
        # Driving against Phi+ with inverted sign converges to Phi- instead.
        h = local_pair()
        rho0 = x_state("|++>")
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        cfg = IntegratorConfig(t_max=300.0)
        flipped = integrate(h, Lyapunov(kappa=1.0, sign=-1), rho0, rho_d0, cfg)
        phi_minus = outer(bell_state(BellName.PHI_MINUS, X_PRODUCT))
        assert hs_norm(flipped.rho[-1] - phi_minus) < 1e-3

    def test_v_stop_ends_run_early(self):
        h = local_pair()
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        cfg = IntegratorConfig(t_max=300.0, v_stop=1e-8)
        traj = integrate(h, Lyapunov(kappa=2.0), x_state("|++>"), rho_d0, cfg)
        assert traj.t[-1] < 300.0
        assert traj.V[-1] < 1e-8
        assert traj.V[-2] >= 1e-8


class TestReducedRuns:
    propagate = staticmethod(integrate)

    def test_two_level_run_reports_embedded_metrics(self):
        h = local_pair()
        red = subspace_reduce(h)
        rho0 = np.diag([1.0, 0.0]).astype(complex)  # Phi+ in the reduced frame
        rho_d0 = np.diag([1.0, 0.0]).astype(complex)
        traj = self.propagate(red, None, rho0, rho_d0, IntegratorConfig(t_max=2.0))
        assert np.allclose(traj.p_S, 1.0, atol=1e-9)
        assert np.allclose(traj.concurrence, 1.0, atol=1e-9)


class TestReducedRunsExact(TestReducedRuns):
    propagate = staticmethod(propagate_exact)


class TestInvariantMonitor:
    propagate = staticmethod(integrate)

    def test_aborts_on_trace_violation(self):
        h = local_pair()
        bad = 0.9 * x_state("|++>")  # trace 0.9 trips the monitor immediately
        with pytest.raises(IntegrationError, match="trace"):
            self.propagate(h, None, bad, x_state("|-->"), IntegratorConfig(t_max=1.0))

    def test_error_carries_time(self):
        h = local_pair()
        bad = 0.9 * x_state("|++>")
        with pytest.raises(IntegrationError) as excinfo:
            self.propagate(h, None, bad, x_state("|-->"), IntegratorConfig(t_max=1.0))
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
        h = local_pair()
        rho0 = np.diag([1.0 + negative, -negative, 0.0, 0.0]).astype(complex) * rho_scale
        rho0[0, 1] = offdiag
        with pytest.raises(IntegrationError, match=message) as excinfo:
            self.propagate(h, None, rho0, rho_d_scale * x_state("|++>"),
                           IntegratorConfig(t_max=1.0))
        assert excinfo.value.t == pytest.approx(0.1)


class TestInvariantMonitorExact(TestInvariantMonitor):
    propagate = staticmethod(propagate_exact)


def random_pure_state(amps):
    v = np.array(amps[:4]) + 1j * np.array(amps[4:])
    return outer(v / np.linalg.norm(v))


class TestExactPropagation:
    @pytest.mark.parametrize("t0", [2.0, 5.0], ids=["switched", "field_on"])
    def test_matches_matrix_exponential(self, t0):
        h = local_pair()
        rho0 = 0.7 * outer(np.full(4, 0.5, dtype=complex)) + 0.3 * x_state("|++>")  # mixed
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        traj = propagate_exact(h, Geometric(t0=t0), rho0, rho_d0,
                               IntegratorConfig(t_max=5.0))
        at_t0 = geometric_evolve(h.h0 + h.h1, rho0, t0)
        for t, rho, rho_d in zip(traj.t, traj.rho, traj.rho_d):
            if t < t0:
                expected = geometric_evolve(h.h0 + h.h1, rho0, t)
            else:
                expected = geometric_evolve(h.h0, at_t0, t - t0)
            assert np.max(np.abs(rho - expected)) <= 1e-12, t
            assert np.max(np.abs(rho_d - geometric_evolve(h.h0, rho_d0, t))) <= 1e-12, t

    def test_matches_dp5_on_preset(self):
        # The gap is the DP5(4) global error at default tolerances (~1e-8 here).
        cfg = dict(preset_scenarios("figure1"))["figure1_B0.4"]
        h = hamiltonians(cfg.model, cfg.paradigm, X_PRODUCT)
        rho0 = outer(X_PRODUCT.vector_from_z(cfg.initial_state))
        rho_d0 = outer(X_PRODUCT.vector_from_z(cfg.target_state))
        exact = propagate_exact(h, cfg.law, rho0, rho_d0, cfg.integrator)
        dp5 = integrate(h, cfg.law, rho0, rho_d0, cfg.integrator)
        assert np.array_equal(exact.t, dp5.t)
        assert np.array_equal(exact.f, dp5.f)
        assert np.max(np.abs(exact.rho - dp5.rho)) <= 1e-6
        assert np.max(np.abs(exact.rho_d - dp5.rho_d)) <= 1e-6

    @pytest.mark.parametrize("t0", [5.0, 10.23, 20.0], ids=["t0=5", "t0=10.23", "t0=t_max"])
    def test_dp5_steps_only_while_the_field_is_on(self, t0, monkeypatch):
        # A stage past t0 would see the field off, and the step ending at t0
        # would be rejected down to a tiny size.
        stage_times = []
        real_rhs = dynamics.rhs

        def recorded(frame, law, t, y):
            stage_times.append(t)
            return real_rhs(frame, law, t, y)

        monkeypatch.setattr(dynamics, "rhs", recorded)
        cfg = dict(preset_scenarios("figure1"))["figure1_B0.4"]
        assert cfg.integrator.t_max == 20.0
        h = hamiltonians(cfg.model, cfg.paradigm, X_PRODUCT)
        rho0 = outer(X_PRODUCT.vector_from_z(cfg.initial_state))
        rho_d0 = outer(X_PRODUCT.vector_from_z(cfg.target_state))
        law = Geometric(t0=t0)
        dp5 = integrate(h, law, rho0, rho_d0, cfg.integrator)
        exact = propagate_exact(h, law, rho0, rho_d0, cfg.integrator)
        assert max(stage_times) <= t0
        assert dp5.metadata.integrator_stats.h_min >= 1e-3
        assert np.array_equal(exact.t, dp5.t)
        assert np.max(np.abs(exact.rho - dp5.rho)) <= 1e-8

    def test_rejects_feedback_law(self):
        h = local_pair()
        with pytest.raises(ValueError, match="integrate"):
            propagate_exact(h, Lyapunov(kappa=1.0), x_state("|++>"), x_state("|-->"),
                            IntegratorConfig(t_max=1.0))

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
        h = hamiltonians(ModelParams(J=1.0, eta=eta, k=k), paradigm, X_PRODUCT)
        rho0, rho_d0 = random_pure_state(amps[:8]), random_pure_state(amps[8:])
        t0 = switch * t_max
        cfg = IntegratorConfig(t_max=t_max, sample_every=0.25)
        traj = propagate_exact(h, Geometric(t0=t0), rho0, rho_d0, cfg)
        at_t0 = geometric_evolve(h.h0 + h.h1, rho0, t0)
        for t, rho, rho_d in zip(traj.t, traj.rho, traj.rho_d):
            if t < t0:
                expected = geometric_evolve(h.h0 + h.h1, rho0, t)
            else:
                expected = geometric_evolve(h.h0, at_t0, t - t0)
            assert np.max(np.abs(rho - expected)) <= 1e-10
            assert np.max(np.abs(rho_d - geometric_evolve(h.h0, rho_d0, t))) <= 1e-10
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert abs(np.real(np.trace(rho @ rho)) - 1.0) <= 1e-12


class TestTrajectoryType:
    def test_strictly_increasing_times_enforced(self):
        meta = TrajectoryMetadata(None, None, None, False)
        n = 3
        arr = np.zeros((n, 4, 4), dtype=complex)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.5, 0.5]), arr, arr,
                       np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), meta)

    def test_len_counts_samples(self):
        h = local_pair()
        traj = integrate(h, None, x_state("|++>"), x_state("|-->"),
                         IntegratorConfig(t_max=1.0, sample_every=0.5))
        assert len(traj) == 3

    def test_rhs_traceless_and_hermiticity_preserving(self):
        rng = np.random.default_rng(19)
        h = local_pair()
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        frame, y = dynamics._frame(h, np.stack([rho, rho]))
        dy = rhs(frame, Geometric(t0=1.0), 0.7, y)
        drho = dy.reshape(4, 4)
        assert dy.shape == (16,)  # the state alone; the target is not stepped
        assert abs(np.trace(drho)) < 1e-14
        assert hs_norm(drho - drho.conj().T) < 1e-13


def random_matrix(values, d):
    """A d x d complex matrix from 2 d^2 floats."""
    v = np.asarray(values[: 2 * d * d])
    return (v[: d * d] + 1j * v[d * d:]).reshape(d, d)


def random_density(values, d, rank):
    """A density matrix of rank at most `rank` (1 is pure) from 2 d^2 floats."""
    m = random_matrix(values, d)[:, :rank]
    rho = m @ m.conj().T
    assume(np.trace(rho).real > 1e-3)
    return rho / np.trace(rho)


def commutator(a, b):
    return a @ b - b @ a


floats32 = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).filter(
    lambda v: np.linalg.norm(v) > 0.1
)


class TestRhs:
    """`rhs` on vec rho~, the state in the interaction picture of H0 written
    in its eigenbasis W, against the lab-frame commutator carried into that
    frame with an independent matrix exponential U0(t) = expm(-i H0 t), with
    the feedback from `control_field` and an open-loop law's field on."""

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([2, 4]),
        h0=floats32,
        h1=floats32,
        rho=floats32,
        rho_d=floats32,
        ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        law=st.one_of(
            st.builds(Lyapunov, st.floats(0.01, 3.0), st.sampled_from([1, -1])),
            st.builds(Geometric, st.floats(0.0, 2.0)),
            st.none(),
        ),
        t=st.floats(0.0, 2.0),
    )
    def test_matches_commutator_form(self, d, h0, h1, rho, rho_d, ranks, law, t):
        m0, m1 = random_matrix(h0, d), random_matrix(h1, d)
        h = HamiltonianPair(m0 + m0.conj().T, m1 + m1.conj().T, X_PRODUCT)
        rho = random_density(rho, d, ranks[0])  # state and target at time t
        rho_d = random_density(rho_d, d, ranks[1])
        u0 = expm(-1j * h.h0 * t)
        frame, _ = dynamics._frame(h, u0.conj().T @ np.stack([rho, rho_d]) @ u0)
        w = frame[0][1]

        def to_frame(m):
            return w.conj().T @ u0.conj().T @ m @ u0 @ w

        dy = rhs(frame, law, t, to_frame(rho).ravel())

        if isinstance(law, Lyapunov):
            f_ref = control_field(rho, rho_d, h.h1, law.kappa, law.sign)
            f_scale = law.kappa * hs_norm(h.h1) * hs_norm(rho) * hs_norm(rho_d)
        else:
            # `integrate` steps an open-loop run only while its field is on.
            f_ref, f_scale = 1.0, 0.0
        dy_ref = to_frame(-1j * commutator(f_ref * h.h1, rho))
        scale = (abs(f_ref) + f_scale) * hs_norm(h.h1) * hs_norm(rho)
        assert hs_norm(dy.reshape(d, d) - dy_ref) <= 1e-12 * scale

    def test_non_hermitian_target_rejected_like_control_field(self):
        h = local_pair()
        rng = np.random.default_rng(3)
        m = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        rho, rho_d = m @ m.conj().swapaxes(1, 2)
        rho /= np.trace(rho)
        rho_d *= 1j / np.trace(rho_d)  # anti-Hermitian
        with pytest.raises(ValueError, match="non-imaginary commutator part"):
            control_field(rho, rho_d, h.h1, 1.0)
        frame, y = dynamics._frame(h, np.stack([rho, rho_d]))
        with pytest.raises(ValueError, match="non-imaginary commutator part"):
            rhs(frame, Lyapunov(kappa=1.0), 0.0, y)

    def test_target_is_the_exact_free_evolution(self):
        h = local_pair()
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        cfg = IntegratorConfig(t_max=3.0)
        traj = integrate(h, Lyapunov(kappa=1.0), x_state("|++>"), rho_d0, cfg)
        free = propagate_exact(h, None, x_state("|++>"), rho_d0, cfg)
        assert np.array_equal(traj.t, free.t)
        assert np.array_equal(traj.rho_d, free.rho_d)


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
        h = hamiltonians(P, paradigm, X_PRODUCT)
        rho0, rho_d0 = random_pure_state(amps[:8]), random_pure_state(amps[8:])
        traj = integrate(h, Lyapunov(kappa=kappa), rho0, rho_d0, IntegratorConfig(t_max=t_max))
        assert np.max(np.diff(traj.V)) <= 1e-8


class TestAgainstDOP853:
    """`integrate` at default tolerances against scipy's DOP853 at rtol 1e-13
    on the same frame `rhs`: an independent stepper and interpolant, and an
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
        cfg = dict(preset_scenarios("figure4"))[label]
        law = cfg.law
        h = hamiltonians(cfg.model, cfg.paradigm, X_PRODUCT)
        rho0 = outer(X_PRODUCT.vector_from_z(cfg.initial_state))
        rho_d0 = outer(X_PRODUCT.vector_from_z(cfg.target_state))
        traj = integrate(h, law, rho0, rho_d0, cfg.integrator)

        frame, y = dynamics._frame(h, np.stack([rho0, rho_d0]))
        ref = solve_ivp(lambda t, y: rhs(frame, law, t, y), (0.0, traj.t[-1]), y,
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=traj.t)
        assert ref.success
        w = frame[0][1]
        rho = np.empty_like(traj.rho)
        for i, (t, y_t) in enumerate(zip(traj.t, ref.y.T)):
            u = expm(-1j * h.h0 * t) @ w
            rho[i] = u @ y_t.reshape(4, 4) @ u.conj().T

        assert np.max(np.abs(traj.V - lyapunov_value(rho, traj.rho_d))) <= 1e-7
        assert np.max(np.abs(traj.concurrence - concurrence(rho, X_PRODUCT))) <= 1e-7
        early = traj.t <= rho_until
        assert np.max(np.abs(traj.rho - rho)[early]) <= rho_tol
        f = [control_field(r, r_d, h.h1, law.kappa, law.sign)
             for r, r_d in zip(traj.rho, traj.rho_d)]
        assert np.max(np.abs(traj.f - f)) <= 1e-14


class TestIntegratorStats:
    def test_field_names(self):
        assert [f.name for f in dataclasses.fields(IntegratorStats)] == [
            "accepted", "rejected", "rhs_evals", "h_min", "h_max"
        ]
        meta = dataclasses.fields(TrajectoryMetadata)[-1]
        assert (meta.name, meta.default) == ("integrator_stats", None)

    @pytest.mark.parametrize("law", [Lyapunov(kappa=2.0), Geometric(t0=1.3), None])
    def test_counts_every_rhs_call(self, law, monkeypatch):
        calls = []
        real_rhs = dynamics.rhs

        def counted(*args):
            calls.append(args)
            return real_rhs(*args)

        monkeypatch.setattr(dynamics, "rhs", counted)
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        # A first step of 2.0 is too long for the tolerance, so some attempts fail.
        cfg = IntegratorConfig(t_max=4.0, dt=2.0, sample_every=2.0)
        traj = integrate(local_pair(), law, x_state("|++>"), rho_d0, cfg)
        stats = traj.metadata.integrator_stats
        if law is None:
            # With no field rho~ stands still, so nothing is stepped.
            assert (stats.accepted, stats.rejected, stats.h_min) == (0, 0, None)
        else:
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
        h = hamiltonians(P, Paradigm.INTERACTION_CONTROL, X_PRODUCT)
        rho_d0 = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        cfg = IntegratorConfig(t_max=30.0)
        traj = integrate(h, Lyapunov(kappa=2.0), x_state("|++>"), rho_d0, cfg)
        stats = traj.metadata.integrator_stats
        assert len(traj) == 301
        # A step clipped to the grid exceeds sample_every only by roundoff.
        assert stats.h_max > 5 * cfg.sample_every
        assert stats.accepted < len(traj) - 1
        assert stats.rhs_evals == len(calls) == 6 * (stats.accepted + stats.rejected) + 1

    def test_none_on_exact_path(self):
        traj = propagate_exact(local_pair(), Geometric(t0=0.5), x_state("|++>"),
                               x_state("|-->"), IntegratorConfig(t_max=1.0))
        assert traj.metadata.integrator_stats is None


# The error estimate of a step whose stages were made NaN on purpose.
NAN_STEP = "ignore:invalid value encountered:RuntimeWarning"


class TestMidRunErrors:
    """Errors raised while stepping still report an earlier invariant
    violation first, as a check at every sample would."""

    @staticmethod
    def failing_after(monkeypatch, t_fail, fail):
        real_rhs = dynamics.rhs

        def rhs_failing(frame, law, t, y):
            dy = real_rhs(frame, law, t, y)
            if t > t_fail:
                return fail(dy)
            return dy

        monkeypatch.setattr(dynamics, "rhs", rhs_failing)

    @pytest.mark.filterwarnings(NAN_STEP)
    def test_underflow_names_last_accepted_step(self, monkeypatch):
        self.failing_after(monkeypatch, 0.35, lambda dy: dy * np.nan)
        with pytest.raises(IntegrationError, match="step size underflow") as excinfo:
            integrate(local_pair(), Lyapunov(kappa=1.0), x_state("|++>"), x_state("|-->"),
                      IntegratorConfig(t_max=1.0))
        assert excinfo.value.t == pytest.approx(0.35, abs=1e-6)
        assert "last accepted step h=" in str(excinfo.value)
        assert f"ending at t={excinfo.value.t:.6g}" in str(excinfo.value)

    def test_underflow_with_no_accepted_step(self):
        with pytest.raises(IntegrationError, match="last accepted step none"):
            integrate(local_pair(), Lyapunov(kappa=1.0), x_state("|++>"), x_state("|-->"),
                      IntegratorConfig(t_max=1.0, dt=1e-14))

    @pytest.mark.parametrize(
        "error", [pytest.param(None, marks=pytest.mark.filterwarnings(NAN_STEP)),
                  ValueError("bad field")]
    )
    def test_invariant_violation_reported_first(self, monkeypatch, error):
        def fail(dy):
            if error is not None:
                raise error
            return dy * np.nan

        self.failing_after(monkeypatch, 0.35, fail)
        bad = 0.9 * x_state("|++>")
        with pytest.raises(IntegrationError, match="rho trace drift") as excinfo:
            integrate(local_pair(), Lyapunov(kappa=1.0), bad, x_state("|-->"),
                      IntegratorConfig(t_max=1.0))
        assert excinfo.value.t == pytest.approx(0.1)

    def test_value_error_passes_through_on_valid_samples(self, monkeypatch):
        def fail(dy):
            raise ValueError("bad field")

        self.failing_after(monkeypatch, 0.35, fail)
        with pytest.raises(ValueError, match="bad field"):
            integrate(local_pair(), Lyapunov(kappa=1.0), x_state("|++>"), x_state("|-->"),
                      IntegratorConfig(t_max=1.0))
