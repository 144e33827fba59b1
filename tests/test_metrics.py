"""Unit tests for entanglement and convergence diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsteer.dynamics import Trajectory, TrajectoryMetadata
from bellsteer.linalg import kron, outer
from bellsteer.metrics import (
    concurrence,
    convergence_report,
    equator_state,
    lasalle_distance,
    peak_report,
    PeakReport,
)
from bellsteer.model import BASES, BellName, X_PRODUCT, Z_PRODUCT, bell_state


def random_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim=4):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_local_unitary(rng):
    blocks = []
    for _ in range(2):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
        blocks.append(q)
    return kron(blocks[0], blocks[1])


def make_traj(t, V=None, C=None, stalled=False):
    t = np.asarray(t, dtype=float)
    n = len(t)
    zeros = np.zeros((n, 4, 4), dtype=complex)
    meta = TrajectoryMetadata(None, None, None, stalled)
    return Trajectory(
        t, zeros, zeros, np.zeros(n),
        np.asarray(V, dtype=float) if V is not None else np.zeros(n),
        np.asarray(C, dtype=float) if C is not None else np.zeros(n),
        np.zeros(n), meta,
    )


class TestConcurrence:
    def test_product_state_zero(self):
        plus_plus = np.full(4, 0.5, dtype=complex)
        assert concurrence(outer(plus_plus)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_states_one(self):
        for name in BellName:
            rho = outer(bell_state(name, Z_PRODUCT))
            assert concurrence(rho) == pytest.approx(1.0, abs=1e-9), name

    def test_partially_entangled_superposition(self):
        # sqrt(0.9)|++> + sqrt(0.1)|--> has concurrence 2*sqrt(0.9*0.1) = 0.6.
        # Pure states put three spin-flip eigenvalues at exactly zero; the
        # eigensolver reports them as ~1e-16 noise whose square root caps the
        # achievable accuracy near 1e-8.
        v_x = np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)], dtype=complex)
        rho_x = outer(v_x)
        assert concurrence(rho_x, X_PRODUCT) == pytest.approx(0.6, abs=5e-8)

    def test_pure_state_closed_form(self):
        # For |psi> = (a, b, c, d) in Z coordinates, C = 2|ad - bc|.
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = random_state(rng)
            expected = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
            assert concurrence(outer(v)) == pytest.approx(expected, abs=5e-8)

    def test_werner_mixture(self):
        # p |Phi+><Phi+| + (1-p) I/4 has concurrence max(0, (3p-1)/2).
        phi = outer(bell_state(BellName.PHI_PLUS, Z_PRODUCT))
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9):
            rho = p * phi + (1.0 - p) * np.eye(4) / 4.0
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence(rho) == pytest.approx(expected, abs=1e-12), p

    def test_basis_conversion_consistent(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            rho_z = random_density(rng)
            ref = concurrence(rho_z)
            for tag, basis in BASES.items():
                got = concurrence(basis.from_z(rho_z), basis)
                assert got == pytest.approx(ref, abs=1e-10), tag

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            rho = random_density(rng)
            u = random_local_unitary(rng)
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        white=st.floats(0.01, 1.0),
        spins=st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
                lambda v: np.linalg.norm(v) > 0.1
            ),
            min_size=2,
            max_size=2,
        ),
        phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    )
    def test_random_local_unitaries_leave_it_unchanged(self, m, white, spins, phases):
        # A white admixture keeps every eigenvalue of rho at least white / 4,
        # so no square root of a roundoff eigenvalue (~1e-8) enters C.
        m = (np.array(m[:16]) + 1j * np.array(m[16:])).reshape(4, 4)
        rho = (1.0 - white) * m @ m.conj().T / np.trace(m @ m.conj().T) + white * np.eye(4) / 4
        # Each factor is e^{i phi} [[a, -b*], [b, a*]] with |a|^2 + |b|^2 = 1.
        blocks = []
        for v, phi in zip(spins, phases):
            a, b = complex(v[0], v[1]), complex(v[2], v[3])
            a, b = np.array([a, b]) / np.linalg.norm(v)
            blocks.append(np.exp(1j * phi) * np.array([[a, -b.conjugate()], [b, a.conjugate()]]))
        u = kron(*blocks)
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            c = concurrence(random_density(rng))
            assert -1e-9 <= c <= 1.0 + 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence(np.eye(2) / 2.0)


class TestLasalleDistance:
    def test_family_member_alpha_zero(self):
        dist, alpha = lasalle_distance(equator_state(0.0))
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_family_member_alpha_pi_is_phase_flipped_bell(self):
        member = equator_state(np.pi)
        assert np.allclose(member, outer(bell_state(BellName.PHI_MINUS, X_PRODUCT)))
        dist, alpha = lasalle_distance(member)
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert abs(alpha) == pytest.approx(np.pi, abs=1e-12)

    def test_alpha_recovered_for_random_members(self):
        for a in (-2.0, -0.3, 0.7, 2.5):
            dist, alpha = lasalle_distance(equator_state(a))
            assert dist == pytest.approx(0.0, abs=1e-12)
            assert alpha == pytest.approx(a, abs=1e-12)

    def test_product_state_distance(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |++><++| in XProduct coordinates
        dist, alpha = lasalle_distance(rho)
        assert dist == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)
        assert np.isnan(alpha)

    def test_balanced_mixture_has_indeterminate_phase(self):
        rho = 0.5 * equator_state(0.0) + 0.5 * equator_state(np.pi)
        dist, alpha = lasalle_distance(rho)
        assert np.isnan(alpha)
        assert dist == pytest.approx(0.5, abs=1e-9)

    def test_returned_phase_is_the_minimizer(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            rho = random_density(rng)
            dist, alpha = lasalle_distance(rho)
            grid = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
            for a in grid:
                delta = rho - equator_state(a)
                other = np.sqrt(0.5 * np.real(np.trace(delta @ delta)))
                assert dist <= other + 1e-12

    def test_members_are_maximally_entangled(self):
        for a in np.linspace(0.0, 2.0 * np.pi, 25):
            c = concurrence(equator_state(a), X_PRODUCT)
            assert c == pytest.approx(1.0, abs=1e-7), a

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            lasalle_distance(np.eye(2) / 2.0)


class TestConvergenceReport:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 50.0, 501)
        traj = make_traj(t, V=np.exp(-0.3 * t))
        rep = convergence_report(traj, (0.0, 50.0))
        assert rep.rate == pytest.approx(0.3, abs=1e-6)
        assert rep.fit_quality >= 0.9999

    def test_constant_v_zero_rate(self):
        t = np.linspace(0.0, 10.0, 101)
        traj = make_traj(t, V=np.full(101, 0.5), stalled=True)
        rep = convergence_report(traj, (0.0, 10.0))
        assert abs(rep.rate) < 1e-12

    def test_roundoff_on_constant_v_is_flat(self):
        # V = 0.38 to roundoff: a line through ln V would only fit the noise.
        t = np.linspace(0.0, 100.0, 1001)
        noise = 1e-16 * np.random.default_rng(0).standard_normal(t.size)
        rep = convergence_report(make_traj(t, V=0.38 * (1.0 + noise)), (0.0, 100.0))
        assert rep.rate == 0.0
        assert rep.fit_quality == 1.0

    def test_noise_floor_excluded(self):
        # Exact zeros below the floor must not reach the log.
        t = np.linspace(0.0, 60.0, 601)
        v = np.exp(-t)
        v[t > 40.0] = 0.0
        traj = make_traj(t, V=v)
        rep = convergence_report(traj, (0.0, 60.0))
        assert rep.rate == pytest.approx(1.0, abs=1e-6)

    def test_window_outside_span_rejected(self):
        traj = make_traj(np.linspace(0.0, 10.0, 101), V=np.ones(101))
        with pytest.raises(ValueError, match="span"):
            convergence_report(traj, (5.0, 20.0))

    def test_empty_window_rejected(self):
        traj = make_traj(np.linspace(0.0, 10.0, 101), V=np.ones(101))
        with pytest.raises(ValueError, match="empty"):
            convergence_report(traj, (5.0, 5.0))

    def test_too_few_samples_rejected(self):
        traj = make_traj(np.linspace(0.0, 10.0, 101), V=np.ones(101))
        with pytest.raises(ValueError, match="usable samples"):
            convergence_report(traj, (0.0, 0.5))


class TestPeakReport:
    def test_monotone_trace(self):
        t = np.linspace(0.0, 10.0, 101)
        c = np.linspace(0.0, 0.5, 101)
        rep = peak_report(make_traj(t, C=c), threshold=0.99)
        assert rep.t_first is None
        assert rep.c_max == pytest.approx(0.5)
        # Window of width 10 centered on the max covers t in [5, 10]; for a
        # monotone trace the amplitude is the window max minus min.
        assert rep.fluctuation_amplitude == pytest.approx(0.25)

    def test_threshold_crossing_interpolated(self):
        traj = make_traj([0.0, 1.0, 2.0], C=[0.0, 0.5, 1.0])
        rep = peak_report(traj, threshold=0.75)
        assert rep.t_first == pytest.approx(1.5)

    def test_threshold_met_at_start(self):
        traj = make_traj([0.0, 1.0, 2.0], C=[1.0, 1.0, 1.0])
        rep = peak_report(traj, threshold=0.99)
        assert rep.t_first == 0.0

    def test_oscillation_amplitude(self):
        t = np.linspace(0.0, 40.0, 4001)
        c = 0.9 + 0.05 * np.sin(2.0 * np.pi * t / 3.0)
        rep = peak_report(make_traj(t, C=c))
        assert rep.c_max == pytest.approx(0.95, abs=1e-6)
        assert rep.fluctuation_amplitude == pytest.approx(0.1, abs=1e-3)

    def test_window_width_parameter(self):
        # A narrow window around the max of a slow ramp sees a smaller range.
        t = np.linspace(0.0, 10.0, 101)
        c = np.linspace(0.0, 0.5, 101)
        rep = peak_report(make_traj(t, C=c), window_width=2.0)
        assert rep.fluctuation_amplitude == pytest.approx(0.05)

    def test_plateau_roundoff_does_not_move_result(self):
        # A rise to a plateau at 1 - 5e-10. A 1e-12 bump early on the plateau
        # makes that sample the argmax; a window centred there would reach
        # back over the rise.
        t = np.linspace(0.0, 20.0, 201)
        c = np.minimum(t / 3.0, 1.0 - 5e-10)
        bumped = c.copy()
        bumped[31] += 1e-12
        base = peak_report(make_traj(t, C=c))
        rep = peak_report(make_traj(t, C=bumped))
        assert rep.t_first == base.t_first
        assert rep.fluctuation_amplitude == pytest.approx(
            base.fluctuation_amplitude, abs=1e-11
        )
        assert base.fluctuation_amplitude < 1e-9

    def test_c_max_validated(self):
        with pytest.raises(ValueError, match="c_max"):
            PeakReport(t_first=None, c_max=1.5, fluctuation_amplitude=0.0)
