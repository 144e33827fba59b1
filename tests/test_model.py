"""Unit tests for model parameters, bases, Hamiltonians and their X(x)X
parity sectors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsteer.dynamics import _sector_eigh
from bellsteer.model import (
    BASES,
    BELL,
    SECTORS,
    Basis,
    BellName,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    Z_PRODUCT,
    bell_state,
    hamiltonians,
    subspace_populations,
)
from oracles import (
    PAULI,
    embed,
    from_z,
    h_eff,
    h_local,
    model_matrices,
    outer,
    sector_blocks,
)

X = PAULI[0]

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
        assert np.linalg.norm(hamiltonians(p, Paradigm.LOCAL_CONTROL).h1) == 0.0

    def test_large_eta_warns(self):
        with pytest.warns(UserWarning, match="not small"):
            ModelParams(J=1.0, eta=1.5)

    def test_default_symmetric_coupling(self):
        assert ModelParams(J=1.0, eta=0.1).k == 1.0


class TestBases:
    @pytest.mark.parametrize("tag", ["ZProduct", "XProduct", "Bell"])
    def test_transforms_unitary(self, tag):
        u = BASES[tag].transform
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_rejects_non_unitary_transform(self):
        with pytest.raises(ValueError, match="not unitary"):
            Basis("broken", np.ones((2, 2), dtype=complex))

    def test_rejects_nan_transform(self):
        with pytest.raises(ValueError, match="not unitary"):
            Basis("broken", np.full((4, 4), np.nan, dtype=complex))

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
            w1 = np.linalg.eigvalsh(from_z(BASES[tag], h))
            assert np.allclose(w0, w1)


class TestHamiltonians:
    """`hamiltonians` builds sector blocks; the Kronecker forms `h_local` and
    `h_eff` in ZProduct coordinates are the reference (`tests/oracles.py`)."""

    @settings(max_examples=200, deadline=None)
    @given(
        J=st.floats(1e-6, 1e6),
        eta=st.floats(0.0, 0.99),
        k=st.floats(-5.0, 5.0),
        paradigm=st.sampled_from(list(Paradigm)),
    )
    def test_blocks_match_kron_forms(self, J, eta, k, paradigm):
        """Each operator's blocks against the Kronecker form conjugated into
        XProduct, X_PRODUCT.transform @ H_z @ T† (`model_matrices`): block s
        is its part on the rows and columns SECTORS[s], and its part between
        the sectors is zero, both to a bound derived from the roundoff
        (u = 2^-53, ||H||_F the operator's norm).

        `hamiltonians` rounds each block entry by at most 3 u of it (eta J,
        then 1 + k and the product), and `h_local` each entry of H_z by 2 u.
        T = H(x)H has 16 entries ±1/2, each rounded by at most 5 u of it
        (sqrt 2, its reciprocal, the product of two), so ||dT||_F <= 10 u,
        which moves T H_z T† by at most 2 ||dT||_2 ||H||_F <= 20 u ||H||_F.
        The two 4x4 products add gamma_4 ||A||_F ||B||_F each, 8 u ||H||_F
        (||T||_F = 2, ||T H_z||_F = ||H||_F). So the two sides differ by at
        most (3 + 2 + 20 + 16) u ||H||_F = 41 u ||H||_F in Frobenius norm,
        on the blocks and between them; 64 u covers the terms of order u².
        Seen over 4e4 pairs: 6.3 u on the blocks, 1.0 u between them.
        """
        p = ModelParams(J=J, eta=eta, k=k)
        h = hamiltonians(p, paradigm)
        for blocks, ref in zip((h.h0, h.h1), model_matrices(p, paradigm)):
            bound = 64 * 2.0**-53 * np.linalg.norm(blocks)
            assert blocks.shape == (2, 2, 2)
            assert np.linalg.norm(sector_blocks(ref) - blocks) <= bound
            assert np.linalg.norm(ref - embed(sector_blocks(ref))) <= bound

    def test_h_local_z_coordinates(self):
        p = ModelParams(J=2.0, eta=0.1, k=0.5)
        expected = 0.2 * (np.kron(X, np.eye(2)) + 0.5 * np.kron(np.eye(2), X))
        assert np.allclose(h_local(p), expected)

    def test_h_eff_z_coordinates(self):
        p = ModelParams(J=1.5, eta=0.1)
        assert np.allclose(h_eff(p), 3.0 * np.diag([1, -1, -1, 1]))

    def test_h_local_diagonal_in_x(self):
        p = ModelParams(J=1.0, eta=0.1, k=0.3)
        hx = from_z(X_PRODUCT, h_local(p))
        assert np.allclose(hx, 0.1 * np.diag([1.3, 0.7, -0.7, -1.3]), atol=1e-14)

    def test_h_eff_antidiagonal_in_x(self):
        p = ModelParams(J=1.0, eta=0.1)
        hx = from_z(X_PRODUCT, h_eff(p))
        assert np.allclose(hx, 2.0 * np.fliplr(np.eye(4)), atol=1e-14)

    def test_h_eff_diagonal_in_bell(self):
        p = ModelParams(J=1.0, eta=0.1)
        hb = from_z(BELL, h_eff(p))
        assert np.allclose(hb, 2.0 * np.diag([1, 1, -1, -1]), atol=1e-14)

    def test_h_local_couples_only_phi_pair_in_bell(self):
        p = ModelParams(J=1.0, eta=0.1, k=1.0)
        hb = from_z(BELL, h_local(p))
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = 0.2
        assert np.allclose(hb, expected, atol=1e-14)

    def test_local_control_split(self):
        p = ModelParams(J=1.0, eta=0.1)
        h = hamiltonians(p, Paradigm.LOCAL_CONTROL)
        assert np.allclose(embed(h.h0), from_z(X_PRODUCT, h_eff(p)))
        assert np.allclose(embed(h.h1), from_z(X_PRODUCT, h_local(p)))

    def test_interaction_control_forces_symmetric_drift(self):
        p = ModelParams(J=1.0, eta=0.1, k=0.7)
        h = hamiltonians(p, Paradigm.INTERACTION_CONTROL)
        assert np.allclose(embed(h.h0), from_z(X_PRODUCT, h_local(ModelParams(1.0, 0.1, 1.0))))
        assert np.allclose(embed(h.h1), from_z(X_PRODUCT, h_eff(p)))

    def test_pair_holds_its_two_blocks(self):
        # What a pair was built from is its caller's to keep.
        assert [f.name for f in dataclasses.fields(HamiltonianPair)] == ["h0", "h1"]

    def test_pair_rejects_non_hermitian(self):
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            HamiltonianPair(bad, np.stack([np.eye(2, dtype=complex)] * 2))

    def test_pair_rejects_non_finite_norm(self):
        # Finite entries whose squared sum overflows.
        big = 1e160 * np.stack([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(ValueError, match="h1 has no finite norm"):
            HamiltonianPair(np.stack([np.eye(2, dtype=complex)] * 2), big)

    def test_pair_rejects_a_4x4_matrix(self):
        with pytest.raises(ValueError, match=r"h0 must be two 2x2 sector blocks.*\(4, 4\)"):
            HamiltonianPair(np.eye(4, dtype=complex), np.eye(4, dtype=complex))


def s_block(p, paradigm):
    """The eigenvalues, eigenvectors (ZProduct columns) and control block on
    S of the pair `hamiltonians(p, paradigm)`, from `_sector_eigh`; the
    control block is taken on the Kronecker form of H1 (`model_matrices`)."""
    (lam,), (w,), _ = _sector_eigh(hamiltonians(p, paradigm))
    h1 = model_matrices(p, paradigm)[1]
    return lam[:2], X_PRODUCT.transform.conj().T @ w[:, :2], (w.conj().T @ h1 @ w)[:2, :2]


class TestSubspaceReduce:
    """The S block of a pair is the reduced pair: a two-level drift and
    control in the frame that diagonalises the drift."""

    def test_local_pair_reduces_in_phi_frame(self):
        p = ModelParams(J=1.0, eta=0.1)
        lam, w, h1 = s_block(p, Paradigm.LOCAL_CONTROL)
        assert np.allclose(lam, [-2.0, 2.0], atol=1e-14)
        phi = [bell_state(name, Z_PRODUCT) for name in (BellName.PHI_MINUS, BellName.PHI_PLUS)]
        assert np.allclose(np.abs(np.conj(phi) @ w), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(h1), 0.2 * X.real, atol=1e-14)

    def test_interaction_pair_reduces_in_x_frame(self):
        p = ModelParams(J=1.0, eta=0.1)
        lam, w, h1 = s_block(p, Paradigm.INTERACTION_CONTROL)
        assert np.allclose(lam, [-0.2, 0.2], atol=1e-14)
        x_rows = X_PRODUCT.transform[[3, 0]]  # |-->, |++>
        assert np.allclose(np.abs(x_rows.conj() @ w), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(h1), 2.0 * X.real, atol=1e-14)

    def test_reduction_basis_independent(self):
        # The same reduction from the Kronecker forms in ZProduct coordinates,
        # on the rows Phi-, Phi+ that span S there.
        p = ModelParams(J=1.0, eta=0.1)
        lam_x, _, h1_x = s_block(p, Paradigm.LOCAL_CONTROL)
        q = np.conj([bell_state(name, Z_PRODUCT) for name in (BellName.PHI_MINUS,
                                                               BellName.PHI_PLUS)])
        lam_z, v = np.linalg.eigh(q @ h_eff(p) @ q.conj().T)
        h1_z = v.conj().T @ q @ h_local(p) @ q.conj().T @ v
        assert np.allclose(lam_z, lam_x)
        assert np.allclose(np.abs(h1_z), np.abs(h1_x))

    def test_asymmetric_coupling_keeps_the_sectors(self):
        # k != 1 changes the drive, not the parity: eta J (X(x)I + k I(x)X) drives
        # S with eta J (1 + k) and the complement with eta J |1 - k|, each coupling
        # the drift's two levels.
        p = ModelParams(J=1.0, eta=0.1, k=0.5)
        (lam,), (w,), _ = _sector_eigh(hamiltonians(p, Paradigm.LOCAL_CONTROL))
        h1 = np.abs(w.conj().T @ model_matrices(p, Paradigm.LOCAL_CONTROL)[1] @ w)
        assert np.allclose(lam, [-2.0, 2.0, -2.0, 2.0])
        assert np.allclose(h1, np.kron(np.diag([0.15, 0.05]), X.real))

    def test_eigenvectors_sit_on_the_sector_rows(self):
        # W holds sector s's eigenvectors on the rows SECTORS[s], in columns 2s and
        # 2s + 1, and exact zeros elsewhere; it is unitary and diagonalises H0.
        h = hamiltonians(ModelParams(J=1.3, eta=0.17, k=0.6), Paradigm.INTERACTION_CONTROL)
        (lam,), (w,), _ = _sector_eigh(h)
        for s, rows in enumerate(SECTORS):
            others = [r for r in range(4) if r not in rows]
            assert np.all(w[np.ix_(others, [2 * s, 2 * s + 1])] == 0)
        assert np.allclose(w.conj().T @ w, np.eye(4), atol=1e-15)
        assert np.allclose(w.conj().T @ embed(h.h0) @ w, np.diag(lam), atol=1e-15)


def parity_population(rho, basis):
    """Re Tr(P_S rho) for rho in ``basis``, with P_S = (1 + X(x)X)/2 written in it."""
    p_s = from_z(basis, 0.5 * (np.eye(4) + np.kron(X, X)))
    return np.trace(p_s @ rho).real


class TestSubspacePopulations:
    """`subspace_populations` reads p_S = Re(rho_00 + rho_33) off an XProduct
    matrix; the reference is Re Tr(P_S rho) with the parity projector
    P_S = (1 + X(x)X)/2 written in any basis."""

    def test_pair_states_fully_inside(self):
        for name in (BellName.PHI_PLUS, BellName.PHI_MINUS):
            rho = outer(bell_state(name, X_PRODUCT))
            p_s, p_perp = subspace_populations(rho)
            assert p_s == pytest.approx(1.0, abs=1e-12)
            assert p_perp == pytest.approx(0.0, abs=1e-12)

    def test_z_ground_state_half_inside(self):
        rho = outer(X_PRODUCT.vector_from_z(np.eye(4)[0]))  # |00>
        p_s, _ = subspace_populations(rho)
        assert p_s == pytest.approx(0.5, abs=1e-12)

    def test_consistent_across_bases(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho_z = outer(random_state(rng))
            p_s, _ = subspace_populations(from_z(X_PRODUCT, rho_z))
            for basis in (Z_PRODUCT, X_PRODUCT, BELL):
                ref = parity_population(from_z(basis, rho_z), basis)
                assert p_s == pytest.approx(ref, abs=1e-12)

    def test_any_unitary_basis(self):
        rng = np.random.default_rng(23)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        basis = Basis("Other", u)
        for _ in range(20):
            rho_z = outer(random_state(rng))
            p_s, _ = subspace_populations(from_z(X_PRODUCT, rho_z))
            assert p_s == pytest.approx(parity_population(from_z(basis, rho_z), basis), abs=1e-12)

    def test_rejects_non_orthonormal_rows(self):
        rows = np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=complex) / SQ2
        with pytest.raises(ValueError, match="not unitary"):
            Basis("broken", rows)
