"""Unit tests for the dense matrix primitives."""

import numpy as np
import pytest

from bellsteer.linalg import (
    as_state_vector,
    dagger,
    hs_norm,
    kron,
    outer,
    pauli,
)


def random_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestPauli:
    def test_algebra(self):
        x, y, z, ident = pauli("X"), pauli("Y"), pauli("Z"), pauli("I")
        assert np.allclose(x @ y, 1j * z)
        assert np.allclose(y @ z, 1j * x)
        assert np.allclose(z @ x, 1j * y)
        for m in (x, y, z):
            assert np.allclose(m @ m, ident)
            assert np.allclose(m, dagger(m))
            assert abs(np.trace(m)) < 1e-15

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown Pauli label"):
            pauli("Q")

    def test_returns_copy(self):
        a = pauli("X")
        a[0, 0] = 99.0
        assert pauli("X")[0, 0] == 0.0


class TestBasicOps:
    def test_kron_block_structure(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.eye(2, dtype=complex)
        k = kron(a, b)
        assert k.shape == (4, 4)
        assert np.allclose(k[:2, 2:], 2 * b)

    def test_hs_norm(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex)
        assert hs_norm(a) == pytest.approx(5.0)
        assert hs_norm(1j * a) == pytest.approx(5.0)

    def test_dagger(self):
        a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]], dtype=complex)
        d = dagger(a)
        assert d[1, 0] == 2.0 - 1j
        assert np.allclose(dagger(d), a)


class TestStateValidation:
    def test_outer_projector(self):
        rng = np.random.default_rng(5)
        v = random_state(rng)
        p = outer(v)
        assert np.trace(p) == pytest.approx(1.0)
        assert hs_norm(p @ p - p) < 1e-12

    def test_outer_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            outer(np.array([1.0, 1.0]))

    def test_as_state_vector_flattens(self):
        v = as_state_vector(np.array([[1.0], [0.0]]))
        assert v.shape == (2,)

    def test_matrices_are_not_state_vectors(self):
        # a pure density matrix has Frobenius norm 1, as a unit vector has
        with pytest.raises(ValueError, match="axis"):
            outer(outer(np.full(4, 0.5)))
        with pytest.raises(ValueError, match="axis"):
            as_state_vector(np.eye(2) / np.sqrt(2))
