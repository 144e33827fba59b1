"""Unit tests for entanglement and convergence diagnostics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellsteer.control import Lyapunov
from bellsteer.dynamics import IntegratorConfig, Trajectory
from bellsteer.experiments import (
    STATE_LITERALS,
    ScenarioConfig,
    SweepConfig,
    preset_scenarios,
    run_preset,
    run_scenario,
    run_sweep,
)
from bellsteer.metrics import (
    concurrence,
    convergence_report,
    equator_state,
    lasalle_distance,
    peak_report,
    PeakReport,
)
from bellsteer.model import (
    BASES,
    Basis,
    BellName,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    Z_PRODUCT,
    bell_state,
)
from oracles import PAULI, from_z, outer

YY = np.real(np.kron(PAULI[1], PAULI[1]))
# Every basis, and a complex unitary one, whose spin flip differs from its conjugate.
_U, _ = np.linalg.qr(
    np.random.default_rng(43).normal(size=(4, 4))
    + 1j * np.random.default_rng(47).normal(size=(4, 4))
)
COMPLEX = Basis("Complex", _U)
EVERY_BASIS = [*BASES.values(), COMPLEX]


def wootters_eigvals(rho, basis=Z_PRODUCT):
    """Wootters' general formula, from the eigenvalues of rho_z Y(x)Y rho_z* Y(x)Y."""
    rho_z = basis.transform.conj().T @ rho @ basis.transform
    m = rho_z @ YY @ rho_z.conj() @ YY
    lams = np.sqrt(np.clip(np.real(np.linalg.eigvals(m)), 0.0, None))
    lams = np.sort(lams, axis=-1)[..., ::-1]
    return np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])


def refuse_eigvals(*args, **kwargs):
    raise AssertionError("np.linalg.eigvals was called")


def loop_fluctuation_amplitude(t, c, window_width=10.0):
    """peak_report's amplitude as a scan of every window sample for a turning point."""
    i_max = int(np.nonzero(c >= np.max(c) - 1e-8)[0][-1])
    half = 0.5 * window_width
    idx = np.where((t >= t[i_max] - half) & (t <= t[i_max] + half))[0]
    candidates = {int(idx[0]), int(idx[-1])}
    for j in idx:
        if 0 < j < len(c) - 1:
            if (c[j] - c[j - 1]) * (c[j + 1] - c[j]) <= 0.0:
                candidates.add(int(j))
    values = c[sorted(candidates)]
    return float(np.max(values) - np.min(values))


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
    return np.kron(blocks[0], blocks[1])


def make_traj(t, V=None, C=None, stalled=False):
    t = np.asarray(t, dtype=float)
    n = len(t)
    zeros = np.zeros((n, 4, 4), dtype=complex)
    return Trajectory(
        t, np.zeros(n),
        np.asarray(V, dtype=float) if V is not None else np.zeros(n),
        np.asarray(C, dtype=float) if C is not None else np.zeros(n),
        np.zeros(n), np.zeros(n), np.zeros(n), stalled, None, lambda: zeros, lambda: zeros,
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
        # A pure state takes the closed form, exact to roundoff (TestPureStateForm).
        v_x = np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)], dtype=complex)
        rho_x = outer(v_x)
        assert concurrence(rho_x, X_PRODUCT) == pytest.approx(0.6, abs=1e-12)

    def test_pure_state_closed_form(self):
        # For |psi> = (a, b, c, d) in Z coordinates, C = 2|ad - bc|. Pure
        # states take the closed form, exact to roundoff (TestPureStateForm).
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = random_state(rng)
            expected = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
            assert concurrence(outer(v)) == pytest.approx(expected, abs=1e-12)

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
                got = concurrence(from_z(basis, rho_z), basis)
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
        u = np.kron(*blocks)
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            c = concurrence(random_density(rng))
            assert -1e-9 <= c <= 1.0 + 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence(np.eye(2) / 2.0)


class TestPureStateForm:
    """Pure samples take the closed form; every other sample keeps the eigensolver."""

    @settings(max_examples=300, deadline=None)
    @given(
        basis=st.sampled_from(EVERY_BASIS),
        parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    )
    def test_pure_states_in_every_basis(self, basis, parts):
        # The general formula is the less accurate one here. For a pure state its
        # m is rank one with eigenvalue C^2 and a spectral projector of norm 1/C,
        # so roundoff of order eps moves the three zero eigenvalues by about
        # eps/C, and their roots by about sqrt(eps/C): up to 3e-6 near C = 1e-6.
        # On 100,000 near-product states it stayed within 0.26 of this bound.
        v = np.array(parts[:4]) + 1j * np.array(parts[4:])
        assume(np.linalg.norm(v) > 0.1)
        v = v / np.linalg.norm(v)
        a, b, c, e = basis.transform.conj().T @ v
        exact = 2.0 * abs(a * e - b * c)
        rho = outer(v)
        reference = wootters_eigvals(rho, basis)
        with mock.patch.object(np.linalg, "eigvals", refuse_eigvals):
            got = concurrence(rho, basis)
        assert abs(got - exact) <= 1e-12
        eps = np.finfo(float).eps
        assert abs(got - reference) <= 5e-8 + 3.0 * np.sqrt(eps / max(exact, eps))

    def test_mixed_states_keep_the_general_formula_bit_for_bit(self):
        phi = outer(bell_state(BellName.PHI_PLUS, Z_PRODUCT))
        werner = [p * phi + (1.0 - p) * np.eye(4) / 4.0 for p in (0.0, 0.2, 1 / 3, 0.5, 0.9)]
        rng = np.random.default_rng(31)
        mixed = werner + [random_density(rng) for _ in range(20)]
        for basis in [*BASES.values(), COMPLEX]:
            stack = np.array([from_z(basis, rho) for rho in mixed])
            for rho in stack:
                assert concurrence(rho, basis) == wootters_eigvals(rho, basis), basis.tag
            assert np.array_equal(concurrence(stack, basis), wootters_eigvals(stack, basis))

    def test_a_stack_of_both_gives_each_sample_its_own_value(self):
        rng = np.random.default_rng(37)
        samples = [outer(random_state(rng)) if i % 3 else random_density(rng) for i in range(12)]
        stack = np.array(samples).reshape(3, 4, 4, 4)
        got = concurrence(stack)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), [concurrence(rho) for rho in samples])

    def test_product_state_in_a_complex_basis(self):
        # T = diag(1, 1, 1, i): the conjugate spin flip T (Y(x)Y) T^T gives this product
        # state C = 1.
        basis = Basis("Phase", np.diag([1, 1, 1, 1j]))
        rho = outer(basis.vector_from_z(np.full(4, 0.5)))
        assert concurrence(rho, basis) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_input_returns_a_float(self):
        rng = np.random.default_rng(41)
        for rho in (outer(random_state(rng)), random_density(rng)):
            assert type(concurrence(rho)) is float

    def test_open_loop_runs_never_call_the_eigensolver(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", refuse_eigvals)
        runs = run_preset("figure1")
        assert [label for label, _, _ in runs] == [
            "figure1_B0.1", "figure1_B0.2", "figure1_B0.4"
        ]
        base = dict(preset_scenarios("figure1"))["figure1_B0.4"]
        rows = run_sweep(SweepConfig(base, "law.t0", (2.5, 5.0, 10.23, 20.0)))
        assert [row["error"] for row in rows] == [None] * 4
        assert all(0.0 <= row["final_concurrence"] <= 1.0 for row in rows)


class TestVerstraeteVerschelde:
    """F <= (1 + C)/2 for a maximally entangled target (Verstraete & Verschelde,
    PRA 66, 022307 (2002)); V = 1 - F for pure states, so C >= 1 - 2V.

    The bound holds for every state, so the slack covers numerical error
    only. Every sample here is pure and takes the closed form, good to about
    1e-15. The slack of 1e-7 was set when the integrate samples took the
    general formula, which subtracts three roots of roundoff eigenvalues of
    about 1e-16, up to about 3e-8 each where C is of order 1 (more near C = 0;
    see test_pure_states_in_every_basis), and their purity defect, at most
    about 1e-9, shifted 1 - 2V by as much.
    """

    def test_concurrence_bounds_the_distance(self, figure1_runs, lyapunov_runs):
        for label, (traj, _) in sorted({**figure1_runs, **lyapunov_runs}.items()):
            gap = traj.concurrence - (1.0 - 2.0 * traj.V)
            print(f"{label}: min C - (1 - 2V) = {gap.min():.3g}")
            assert gap.min() >= -1e-7, label

    def test_the_bound_rises_with_the_feedback(self, lyapunov_runs):
        for label, (traj, _) in sorted(lyapunov_runs.items()):
            bound = np.maximum(0.0, 1.0 - 2.0 * traj.V)
            fall = float(np.max(bound[:-1] - bound[1:]))
            print(f"{label}: largest fall of max(0, 1 - 2V) = {fall:.3g}")
            assert fall <= 1e-12, label


class TestAveragedLocalRate:
    """Local control from |++> follows V = 1/(1 + exp(a t)), a = 8κη²J².

    In S the state is at polar angle θ from Φ+ with drift phase φ, which
    turns at 4J, and dV/dt = -aV(1 - V)(1 - cos 2φ) (README, "Local-control
    rate"). Averaging over φ gives that curve. The cos 2φ term adds
    εV(1 - V) sin 2φ, ε = κη²J, so |V - V̄| <= ε/4 to first order. The
    second-order terms add at most about ε²: the O(ε²) near-identity term, and
    a rate correction of relative order (a/4J)² = 4ε² carried up to at = 12.
    So the column is held to (ε/4)(1 + 8ε). On ln(V/(1 - V)) =
    -at + ε sin 2φ + O(ε²) a least-squares line over at in [0, 12] takes at
    most ε²/12 of slope from the sin 2φ term, so with the rate correction the
    fitted rate is held to 5ε² relative. At the default integrator tolerances
    both figures are within 1e-6 relative of their values at rel_tol 1e-12.
    """

    @pytest.mark.parametrize("eta", [0.05, 0.2])
    def test_v_follows_the_averaged_curve(self, eta):
        J, kappa = 1.0, 1.0
        a, eps = 8.0 * kappa * eta**2 * J**2, kappa * eta**2 * J
        cfg = ScenarioConfig(
            model=ModelParams(J=J, eta=eta),
            paradigm=Paradigm.LOCAL_CONTROL,
            law=Lyapunov(kappa=kappa),
            initial_state=STATE_LITERALS["|++>"],
            target_state=STATE_LITERALS["PhiPlus"],
            integrator=IntegratorConfig(t_max=12.0 / a),
        )
        traj, _ = run_scenario(cfg)
        gap = float(np.max(np.abs(traj.V - 1.0 / (1.0 + np.exp(a * traj.t)))))
        fit = (traj.V > 1e-8) & (traj.V < 0.49)
        slope = np.polyfit(traj.t[fit], np.log(traj.V[fit] / (1.0 - traj.V[fit])), 1)[0]
        print(f"eta {eta}: max|V - V_avg| = {gap / (eps / 4):.4f} eps/4, "
              f"rate {-slope:.8g} against {a:.8g}")
        assert gap <= eps / 4 * (1.0 + 8.0 * eps)
        assert -slope == pytest.approx(a, rel=5.0 * eps**2)


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

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 4), min_size=3, max_size=150),
        width=st.sampled_from([0.3, 2.0, 10.0]),
    )
    def test_matches_the_turning_point_scan(self, levels, width):
        # Few distinct levels give plateaus, ties for the maximum and repeats.
        c = np.array(levels) / 4.0
        t = 0.1 * np.arange(len(c))
        rep = peak_report(make_traj(t, C=c), window_width=width)
        assert rep.fluctuation_amplitude == loop_fluctuation_amplitude(t, c, width)

    def test_c_max_validated(self):
        with pytest.raises(ValueError, match="c_max"):
            PeakReport(t_first=None, c_max=1.5, fluctuation_amplitude=0.0)
