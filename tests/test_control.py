"""Unit tests for the control laws and the descent identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsteer.control import (
    Geometric,
    Lyapunov,
    control_field,
    geometric_field,
    lyapunov_value,
)
from bellsteer.linalg import hs_norm, outer
from bellsteer.model import (
    BellName,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    bell_state,
    hamiltonians,
)
from oracles import f_bound, vdot_identity_check


def random_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim=4):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim=4):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


class TestLawValidation:
    def test_lyapunov_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            Lyapunov(kappa=0.0)

    def test_lyapunov_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            Lyapunov(kappa=1.0, sign=2)

    def test_geometric_rejects_negative_t0(self):
        with pytest.raises(ValueError, match="t0"):
            Geometric(t0=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: Lyapunov(kappa=float("nan")),
        lambda: Lyapunov(kappa=float("inf")),
        lambda: Geometric(t0=float("nan")),
        lambda: Geometric(t0=float("inf")),
    ])
    def test_rejects_non_finite(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestLyapunovValue:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng)
        assert lyapunov_value(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_pure_states(self):
        a = outer(np.array([1, 0, 0, 0], dtype=complex))
        b = outer(np.array([0, 1, 0, 0], dtype=complex))
        assert lyapunov_value(a, b) == pytest.approx(1.0)

    def test_equals_one_minus_overlap_for_pure_states(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            psi, phi = random_state(rng), random_state(rng)
            v = lyapunov_value(outer(psi), outer(phi))
            overlap = abs(np.vdot(psi, phi)) ** 2
            assert abs(v - (1.0 - overlap)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            lyapunov_value(np.eye(2) / 2, np.eye(4) / 4)


class TestControlField:
    def test_matches_definition(self):
        # Independent evaluation of sign * kappa * Tr(rho_d (-i)[H1, rho]).
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho, rho_d = random_density(rng), random_density(rng)
            h1 = random_hermitian(rng)
            expected = np.trace(rho_d @ ((-1j) * (h1 @ rho - rho @ h1))).real
            got = control_field(rho, rho_d, h1, kappa=1.3)
            assert got == pytest.approx(1.3 * expected, abs=1e-12)

    def test_sign_flips_field(self):
        rng = np.random.default_rng(8)
        rho, rho_d = random_density(rng), random_density(rng)
        h1 = random_hermitian(rng)
        f_plus = control_field(rho, rho_d, h1, kappa=1.0, sign=1)
        f_minus = control_field(rho, rho_d, h1, kappa=1.0, sign=-1)
        assert f_plus == pytest.approx(-f_minus)

    def test_zero_at_coincidence(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng)
        h1 = random_hermitian(rng)
        assert control_field(rho, rho, h1, kappa=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            control_field(np.eye(4) / 4, np.eye(4) / 4, np.eye(4), kappa=-1.0)

    def test_realness_guard(self):
        # A non-Hermitian "density matrix" leaks a real part into the trace.
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 1] = 1.0
        rho_d = np.diag([1.0, 0, 0, 0]).astype(complex)
        h1 = np.zeros((4, 4), dtype=complex)
        h1[0, 1] = h1[1, 0] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            control_field(rho, rho_d, h1, kappa=1.0)


class TestControlFieldStack:
    """A stack of states and targets takes Tr(rho_d H1 rho) - Tr(rho H1 rho_d)
    with row-wise products; the slow path is the per-matrix commutator form."""

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([2, 4]),
        n=st.integers(1, 8),
        pure=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.floats(0.01, 3.0),
        sign=st.sampled_from([1, -1]),
    )
    def test_matches_per_matrix_trace(self, d, n, pure, seed, kappa, sign):
        rng = np.random.default_rng(seed)

        def state():
            return outer(random_state(rng, d)) if pure else random_density(rng, d)

        rho = np.stack([state() for _ in range(n)])
        rho_d = np.stack([state() for _ in range(n)])
        h1 = random_hermitian(rng, d)
        got = control_field(rho, rho_d, h1, kappa, sign)
        slow = [sign * kappa * np.trace(r_d @ (h1 @ r - r @ h1)).imag
                for r, r_d in zip(rho, rho_d)]
        # |Tr(rho_d [H1, rho])| <= 2 ||H1|| for unit-trace states (Cauchy-Schwarz).
        assert got.shape == (n,)
        assert np.max(np.abs(got - slow)) <= 1e-14 * kappa * hs_norm(h1)

    def test_non_hermitian_sample_rejected(self):
        rng = np.random.default_rng(14)
        h1 = np.zeros((4, 4), dtype=complex)
        h1[0, 1] = h1[1, 0] = 1.0
        rho = np.stack([random_density(rng) for _ in range(3)])
        rho[1] = 0.0
        rho[1, 0, 1] = 1.0  # as in TestControlField.test_realness_guard
        rho_d = np.stack([np.diag([1.0, 0, 0, 0]).astype(complex)] * 3)
        with pytest.raises(ValueError, match="Hermitian"):
            control_field(rho, rho_d, h1, kappa=1.0)

    def test_single_matrix_gives_a_float(self):
        rng = np.random.default_rng(16)
        f = control_field(random_density(rng), random_density(rng), random_hermitian(rng), 1.0)
        assert type(f) is float


class TestFBound:
    def test_bounds_field_on_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            rho, rho_d = random_density(rng), random_density(rng)
            h1 = random_hermitian(rng)
            kappa = float(rng.uniform(0.1, 3.0))
            f = control_field(rho, rho_d, h1, kappa)
            bound = f_bound(rho, rho_d, h1, kappa)
            assert abs(f) <= bound + 1e-12


class TestGeometricField:
    def test_on_before_t0_off_after(self):
        law = Geometric(t0=5.0)
        assert geometric_field(0.0, law) == 1.0
        assert geometric_field(4.999, law) == 1.0
        assert geometric_field(5.0, law) == 0.0
        assert geometric_field(100.0, law) == 0.0

    def test_t0_zero_means_never_on(self):
        assert geometric_field(0.0, Geometric(t0=0.0)) == 0.0


class TestVdotIdentity:
    @pytest.mark.parametrize("paradigm", list(Paradigm))
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_analytic_matches_finite_difference(self, paradigm, kappa):
        rng = np.random.default_rng(16)
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, paradigm, X_PRODUCT)
        law = Lyapunov(kappa=kappa)
        for _ in range(25):
            rho = outer(random_state(rng))
            rho_d = outer(random_state(rng))
            analytic, numeric = vdot_identity_check(rho, rho_d, h, law)
            assert analytic <= 1e-15
            assert abs(analytic - numeric) <= max(1e-6, 1e-3 * abs(analytic))

    def test_sign_flip_reverses_descent(self):
        # With sign=-1 the same identity holds but dV/dt is nonnegative: the
        # loop climbs away from the target instead of descending toward it.
        rng = np.random.default_rng(17)
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, Paradigm.LOCAL_CONTROL, X_PRODUCT)
        law = Lyapunov(kappa=1.0, sign=-1)
        for _ in range(10):
            rho = outer(random_state(rng))
            rho_d = outer(random_state(rng))
            analytic, numeric = vdot_identity_check(rho, rho_d, h, law)
            assert analytic >= -1e-15
            assert abs(analytic - numeric) <= max(1e-6, 1e-3 * abs(analytic))

    def test_descent_direction_from_bell_target(self):
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, Paradigm.INTERACTION_CONTROL, X_PRODUCT)
        rho = outer(np.array([1, 0, 0, 0], dtype=complex))  # |++> in X coords
        rho_d = outer(bell_state(BellName.PHI_PLUS, X_PRODUCT))
        # At the real initial state the field vanishes; push along the flow a
        # little first so the feedback is active.
        from bellsteer.dynamics import IntegratorConfig, integrate

        traj = integrate(h, Lyapunov(kappa=1.0), rho, rho_d, IntegratorConfig(t_max=1.0))
        analytic, numeric = vdot_identity_check(
            traj.rho[-1], traj.rho_d[-1], h, Lyapunov(kappa=1.0)
        )
        assert analytic < 0
        assert abs(analytic - numeric) <= max(1e-6, 1e-3 * abs(analytic))
        assert hs_norm(traj.rho[-1] - traj.rho_d[-1]) > 0
