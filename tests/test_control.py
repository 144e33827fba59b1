"""Unit tests for the control laws and the descent identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsteer.control import Geometric, Lyapunov, control_field, lyapunov_value
from bellsteer.dynamics import IntegratorConfig, propagate_exact
from bellsteer.model import (
    BellName,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    bell_state,
    hamiltonians,
)
from oracles import embed, f_bound, outer, state_vector, vdot_identity_check


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_density(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_blocks(rng):
    """Random Hermitian (2, 2, 2) parity-sector blocks of an XProduct H1."""
    m = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    return 0.5 * (m + m.conj().swapaxes(1, 2))


class TestLawValidation:
    def test_lyapunov_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            Lyapunov(kappa=0.0)

    def test_lyapunov_rejects_bad_sign(self):
        # The gain's sign sets the field's direction; 0 and nan have none.
        for kappa in (0.0, float("nan")):
            with pytest.raises(ValueError, match="kappa must be finite and nonzero"):
                Lyapunov(kappa=kappa)

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
        # Independent evaluation of kappa * Tr(rho_d (-i)[H1, rho]) on psi psi†.
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi, psi_d = random_state(rng), random_state(rng)
            blocks = random_blocks(rng)
            rho, rho_d, h1 = outer(psi), outer(psi_d), embed(blocks)
            expected = np.trace(rho_d @ ((-1j) * (h1 @ rho - rho @ h1))).real
            got = control_field(psi, psi_d, blocks, kappa=1.3)
            assert got == pytest.approx(1.3 * expected, abs=1e-12)

    def test_sign_flips_field(self):
        rng = np.random.default_rng(8)
        psi, psi_d = random_state(rng), random_state(rng)
        blocks = random_blocks(rng)
        f_plus = control_field(psi, psi_d, blocks, kappa=1.0)
        f_minus = control_field(psi, psi_d, blocks, kappa=-1.0)
        assert f_plus == pytest.approx(-f_minus)

    def test_zero_at_coincidence(self):
        rng = np.random.default_rng(10)
        psi = random_state(rng)
        blocks = random_blocks(rng)
        assert control_field(psi, psi, blocks, kappa=2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, float("nan")])
    def test_rejects_unsigned_kappa(self, kappa):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="kappa"):
            control_field(random_state(rng), random_state(rng), random_blocks(rng), kappa=kappa)


class TestControlFieldStack:
    """An (n, 4) stack of states and targets gives one field per row; the slow
    path is the per-matrix commutator form on their outer products."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.floats(0.01, 3.0),
        sign=st.sampled_from([1, -1]),
    )
    def test_matches_per_matrix_trace(self, n, seed, kappa, sign):
        rng = np.random.default_rng(seed)
        psi = np.stack([random_state(rng) for _ in range(n)])
        psi_d = np.stack([random_state(rng) for _ in range(n)])
        blocks = random_blocks(rng)
        got = control_field(psi, psi_d, blocks, sign * kappa)
        h1 = embed(blocks)
        slow = [sign * kappa * np.trace(outer(v_d) @ (h1 @ outer(v) - outer(v) @ h1)).imag
                for v, v_d in zip(psi, psi_d)]
        # |Tr(rho_d [H1, rho])| <= 2 ||H1|| for unit-trace states (Cauchy-Schwarz), and
        # the blocks have the Frobenius norm of the matrix they embed.
        assert got.shape == (n,)
        assert np.max(np.abs(got - slow)) <= 1e-14 * kappa * np.linalg.norm(blocks)

    def test_single_matrix_gives_a_float(self):
        # One state vector and one target give one float.
        rng = np.random.default_rng(16)
        f = control_field(random_state(rng), random_state(rng), random_blocks(rng), 1.0)
        assert type(f) is float


class TestFBound:
    def test_bounds_field_on_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            psi, psi_d = random_state(rng), random_state(rng)
            blocks = random_blocks(rng)
            kappa = float(rng.uniform(0.1, 3.0))
            f = control_field(psi, psi_d, blocks, kappa)
            bound = f_bound(outer(psi), outer(psi_d), embed(blocks), kappa)
            assert abs(f) <= bound + 1e-12


class TestGeometricField:
    """The open-loop field is `propagate_exact`'s f column: 1.0 at the
    samples strictly before t0 and 0.0 from t0 on, so a sample at t0 is
    already off. The grid 0, 0.25, ..., 1 is exact in binary."""

    @staticmethod
    def field(law):
        h = hamiltonians(ModelParams(J=1.0, eta=0.1), Paradigm.LOCAL_CONTROL)
        psi = np.array([1, 0, 0, 0], dtype=complex)  # |++> in X coords
        traj = propagate_exact(h, law, psi, psi, IntegratorConfig(t_max=1.0, sample_every=0.25))
        assert traj.t.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        return traj.f.tolist()

    def test_on_before_t0_off_after(self):
        assert self.field(Geometric(t0=0.5)) == [1.0, 1.0, 0.0, 0.0, 0.0]  # on a sample
        assert self.field(Geometric(t0=0.6)) == [1.0, 1.0, 1.0, 0.0, 0.0]  # between two

    def test_t0_zero_means_never_on(self):
        assert self.field(Geometric(t0=0.0)) == [0.0] * 5

    def test_t0_at_or_past_t_max(self):
        assert self.field(Geometric(t0=1.0)) == [1.0, 1.0, 1.0, 1.0, 0.0]
        assert self.field(Geometric(t0=2.0)) == [1.0] * 5

    def test_no_law_means_no_field(self):
        assert self.field(None) == [0.0] * 5


class TestVdotIdentity:
    @pytest.mark.parametrize("paradigm", list(Paradigm))
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_analytic_matches_finite_difference(self, paradigm, kappa):
        rng = np.random.default_rng(16)
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, paradigm)
        law = Lyapunov(kappa=kappa)
        for _ in range(25):
            psi, psi_d = random_state(rng), random_state(rng)
            analytic, numeric = vdot_identity_check(psi, psi_d, h, law)
            assert analytic <= 1e-15
            assert abs(analytic - numeric) <= max(1e-6, 1e-3 * abs(analytic))

    def test_sign_flip_reverses_descent(self):
        # With kappa < 0 the same identity holds but dV/dt is nonnegative: the
        # loop climbs away from the target instead of descending toward it.
        rng = np.random.default_rng(17)
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, Paradigm.LOCAL_CONTROL)
        law = Lyapunov(kappa=-1.0)
        for _ in range(10):
            psi, psi_d = random_state(rng), random_state(rng)
            analytic, numeric = vdot_identity_check(psi, psi_d, h, law)
            assert analytic >= -1e-15
            assert abs(analytic - numeric) <= max(1e-6, 1e-3 * abs(analytic))

    def test_descent_direction_from_bell_target(self):
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, Paradigm.INTERACTION_CONTROL)
        psi = np.array([1, 0, 0, 0], dtype=complex)  # |++> in X coords
        psi_d = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        # At the real initial state the field vanishes; push along the flow a
        # little first so the feedback is active.
        from bellsteer.dynamics import IntegratorConfig, integrate

        traj = integrate(h, Lyapunov(kappa=1.0), psi, psi_d, IntegratorConfig(t_max=1.0))
        analytic, numeric = vdot_identity_check(
            state_vector(traj.rho[-1]), state_vector(traj.rho_d[-1]), h, Lyapunov(kappa=1.0)
        )
        assert analytic < 0
        assert abs(analytic - numeric) <= max(1e-6, 1e-3 * abs(analytic))
        assert np.linalg.norm(traj.rho[-1] - traj.rho_d[-1]) > 0
