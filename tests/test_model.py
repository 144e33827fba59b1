"""Unit tests for model parameters, bases, Hamiltonians and their X(x)X
parity sectors."""

import numpy as np
import pytest

from bellsteer.dynamics import _sector_eigh
from bellsteer.linalg import dagger, hs_norm, kron, outer, pauli
from bellsteer.model import (
    BASES,
    BELL,
    Basis,
    BellName,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    Z_PRODUCT,
    bell_state,
    h_eff,
    h_local,
    hamiltonians,
    subspace_populations,
)

SQ2 = np.sqrt(2.0)


def random_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestModelParams:
    def test_rejects_nonpositive_J(self):
        with pytest.raises(ValueError, match="J must be positive"):
            ModelParams(J=0.0, eta=0.1)

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            ModelParams(J=1.0, eta=-0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(J=float("nan"), eta=0.1),
        dict(J=float("inf"), eta=0.1),
        dict(J=1.0, eta=float("nan")),
        dict(J=1.0, eta=0.1, k=float("nan")),
        dict(J=1e200, eta=0.1),  # finite, but not the norm of 2J Z(x)Z
        dict(J=1e100, eta=1e60),  # nor that of the local field
    ])
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**kwargs)

    def test_zero_eta_allowed(self):
        p = ModelParams(J=1.0, eta=0.0)
        assert hs_norm(h_local(p)) == 0.0

    def test_large_eta_warns(self):
        with pytest.warns(UserWarning, match="not small"):
            ModelParams(J=1.0, eta=1.5)

    def test_default_symmetric_coupling(self):
        assert ModelParams(J=1.0, eta=0.1).k == 1.0


class TestBases:
    @pytest.mark.parametrize("tag", ["ZProduct", "XProduct", "Bell"])
    def test_transforms_unitary(self, tag):
        u = BASES[tag].transform
        assert hs_norm(dagger(u) @ u - np.eye(4)) < 1e-12

    def test_rejects_non_unitary_transform(self):
        with pytest.raises(ValueError, match="not unitary"):
            Basis("broken", np.ones((2, 2), dtype=complex))

    def test_x_product_ordering(self):
        # |++> is the first X-product vector; in Z coordinates all +1/2.
        plus_plus_z = np.full(4, 0.5, dtype=complex)
        assert np.allclose(X_PRODUCT.vector_from_z(plus_plus_z), [1, 0, 0, 0])

    def test_bell_ordering(self):
        # Ordering {Psi+, Phi+, Phi-, Psi-} on top of the X-product pairs.
        expected_z = {
            BellName.PSI_PLUS: np.array([1, 0, 0, -1]) / SQ2,
            BellName.PHI_PLUS: np.array([1, 0, 0, 1]) / SQ2,
            BellName.PHI_MINUS: np.array([0, 1, 1, 0]) / SQ2,
            BellName.PSI_MINUS: np.array([0, -1, 1, 0]) / SQ2,
        }
        for i, name in enumerate(BellName):
            v_z = bell_state(name, Z_PRODUCT)
            assert np.allclose(v_z, expected_z[name]), name
            e_i = np.zeros(4)
            e_i[i] = 1.0
            assert np.allclose(bell_state(name, BELL), e_i), name

    def test_phi_states_span_x_pair(self):
        # Phi+/- are the +/- combinations of |++> and |-->.
        phi_plus_x = bell_state(BellName.PHI_PLUS, X_PRODUCT)
        phi_minus_x = bell_state(BellName.PHI_MINUS, X_PRODUCT)
        assert np.allclose(phi_plus_x, np.array([1, 0, 0, 1]) / SQ2)
        assert np.allclose(phi_minus_x, np.array([1, 0, 0, -1]) / SQ2)

    def test_operator_conversion_preserves_spectrum(self):
        rng = np.random.default_rng(21)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (h + h.conj().T)
        for tag in BASES:
            w0 = np.linalg.eigvalsh(h)
            w1 = np.linalg.eigvalsh(BASES[tag].from_z(h))
            assert np.allclose(w0, w1)


class TestHamiltonians:
    def test_h_local_z_coordinates(self):
        p = ModelParams(J=2.0, eta=0.1, k=0.5)
        expected = 0.2 * (kron(pauli("X"), pauli("I")) + 0.5 * kron(pauli("I"), pauli("X")))
        assert np.allclose(h_local(p), expected)

    def test_h_eff_z_coordinates(self):
        p = ModelParams(J=1.5, eta=0.1)
        assert np.allclose(h_eff(p), 3.0 * np.diag([1, -1, -1, 1]))

    def test_h_local_diagonal_in_x(self):
        p = ModelParams(J=1.0, eta=0.1, k=0.3)
        hx = X_PRODUCT.from_z(h_local(p))
        assert np.allclose(hx, 0.1 * np.diag([1.3, 0.7, -0.7, -1.3]), atol=1e-14)

    def test_h_eff_antidiagonal_in_x(self):
        p = ModelParams(J=1.0, eta=0.1)
        hx = X_PRODUCT.from_z(h_eff(p))
        assert np.allclose(hx, 2.0 * np.fliplr(np.eye(4)), atol=1e-14)

    def test_h_eff_diagonal_in_bell(self):
        p = ModelParams(J=1.0, eta=0.1)
        hb = BELL.from_z(h_eff(p))
        assert np.allclose(hb, 2.0 * np.diag([1, 1, -1, -1]), atol=1e-14)

    def test_h_local_couples_only_phi_pair_in_bell(self):
        p = ModelParams(J=1.0, eta=0.1, k=1.0)
        hb = BELL.from_z(h_local(p))
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = 0.2
        assert np.allclose(hb, expected, atol=1e-14)

    def test_local_control_split(self):
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, Paradigm.LOCAL_CONTROL, Z_PRODUCT)
        assert np.allclose(h.h0, h_eff(p))
        assert np.allclose(h.h1, h_local(p))
        assert h.paradigm is Paradigm.LOCAL_CONTROL

    def test_interaction_control_forces_symmetric_drift(self):
        p = ModelParams(J=1.0, eta=0.1, k=0.7)
        h = hamiltonians(p, Paradigm.INTERACTION_CONTROL, Z_PRODUCT)
        assert np.allclose(h.h0, h_local(ModelParams(J=1.0, eta=0.1, k=1.0)))
        assert np.allclose(h.h1, h_eff(p))

    def test_pair_rejects_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            HamiltonianPair(bad, np.eye(4, dtype=complex), Z_PRODUCT)

    def test_pair_rejects_non_finite_norm(self):
        # Finite entries whose squared sum overflows: with an infinite norm the
        # Hermiticity tolerance, which scales with it, would admit anything.
        big = 1e160 * np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="h1 has no finite norm"):
            HamiltonianPair(np.eye(4, dtype=complex), big, Z_PRODUCT)


def s_block(h):
    """The eigenvalues, eigenvectors (ZProduct columns) and control block of
    a pair on S, from `_sector_eigh`."""
    (lam,), (w,) = _sector_eigh(h)
    return lam[:2], dagger(h.basis.transform) @ w[:, :2], (dagger(w) @ h.h1 @ w)[:2, :2]


class TestSubspaceReduce:
    """The S block of a pair is the reduced pair: a two-level drift and
    control in the frame that diagonalises the drift."""

    def test_local_pair_reduces_in_phi_frame(self):
        p = ModelParams(J=1.0, eta=0.1)
        lam, w, h1 = s_block(hamiltonians(p, Paradigm.LOCAL_CONTROL, Z_PRODUCT))
        assert np.allclose(lam, [-2.0, 2.0], atol=1e-14)
        phi = [bell_state(name, Z_PRODUCT) for name in (BellName.PHI_MINUS, BellName.PHI_PLUS)]
        assert np.allclose(np.abs(np.conj(phi) @ w), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(h1), 0.2 * pauli("X").real, atol=1e-14)

    def test_interaction_pair_reduces_in_x_frame(self):
        p = ModelParams(J=1.0, eta=0.1)
        lam, w, h1 = s_block(hamiltonians(p, Paradigm.INTERACTION_CONTROL, Z_PRODUCT))
        assert np.allclose(lam, [-0.2, 0.2], atol=1e-14)
        x_rows = X_PRODUCT.transform[[3, 0]]  # |-->, |++>
        assert np.allclose(np.abs(x_rows.conj() @ w), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(h1), 2.0 * pauli("X").real, atol=1e-14)

    def test_reduction_basis_independent(self):
        p = ModelParams(J=1.0, eta=0.1)
        lam_z, _, h1_z = s_block(hamiltonians(p, Paradigm.LOCAL_CONTROL, Z_PRODUCT))
        lam_x, _, h1_x = s_block(hamiltonians(p, Paradigm.LOCAL_CONTROL, X_PRODUCT))
        assert np.allclose(lam_z, lam_x)
        assert np.allclose(np.abs(h1_z), np.abs(h1_x))

    def test_asymmetric_coupling_keeps_the_sectors(self):
        # k != 1 changes the drive, not the parity: in every basis the pair passes
        # the check, and eta J (X(x)I + k I(x)X) drives S with eta J (1 + k) and
        # the complement with eta J |1 - k|, each coupling the drift's two levels.
        for basis in (Z_PRODUCT, X_PRODUCT, BELL):
            h = hamiltonians(ModelParams(J=1.0, eta=0.1, k=0.5), Paradigm.LOCAL_CONTROL, basis)
            (lam,), (w,) = _sector_eigh(h)
            h1 = np.abs(dagger(w) @ h.h1 @ w)
            assert np.allclose(lam, [-2.0, 2.0, -2.0, 2.0])
            assert np.allclose(h1, np.kron(np.diag([0.15, 0.05]), pauli("X").real))

    def test_rejects_non_invariant_hamiltonian(self):
        # Z(x)I maps |++> out of the pair subspace.
        p = ModelParams(J=1.0, eta=0.1)
        h = HamiltonianPair(h_eff(p), kron(pauli("Z"), pauli("I")), Z_PRODUCT)
        with pytest.raises(ValueError, match=r"does not commute with X\(x\)X"):
            _sector_eigh(h)


class TestSubspacePopulations:
    def test_pair_states_fully_inside(self):
        for basis in (Z_PRODUCT, X_PRODUCT, BELL):
            rho = outer(bell_state(BellName.PHI_PLUS, basis))
            p_s, p_perp = subspace_populations(rho, basis)
            assert p_s == pytest.approx(1.0, abs=1e-12)
            assert p_perp == pytest.approx(0.0, abs=1e-12)

    def test_z_ground_state_half_inside(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        p_s, _ = subspace_populations(rho, Z_PRODUCT)
        assert p_s == pytest.approx(0.5, abs=1e-12)

    def test_consistent_across_bases(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            v_z = random_state(rng)
            rho_z = outer(v_z)
            p_ref, _ = subspace_populations(rho_z, Z_PRODUCT)
            for basis in (X_PRODUCT, BELL):
                rho_b = basis.from_z(rho_z)
                p_b, _ = subspace_populations(rho_b, basis)
                assert p_b == pytest.approx(p_ref, abs=1e-12)

    def test_any_unitary_basis(self):
        rng = np.random.default_rng(23)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        basis = Basis("Other", u)
        for _ in range(20):
            rho_z = outer(random_state(rng))
            p_ref, _ = subspace_populations(rho_z, Z_PRODUCT)
            p_b, _ = subspace_populations(basis.from_z(rho_z), basis)
            assert p_b == pytest.approx(p_ref, abs=1e-12)

    def test_rejects_non_orthonormal_rows(self):
        rows = np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=complex) / SQ2
        with pytest.raises(ValueError, match="not unitary"):
            Basis("broken", rows)
