"""Exact symmetries of the model as tests: a unitary that maps H0 onto itself
and H1 onto plus or minus a control Hamiltonian of the model maps one
closed-loop run onto another, so the two runs must agree to roundoff, or bit
for bit, with no reference solution (README, "Block structure and
reachability"). Each relation pins signs and sector indices that a
reference solution shares with the code under test. All runs here step one
parity sector on its Bloch vector, from t = 0 to 300 at the default
tolerances.

The feedback f = 2 kappa Im(<psi_d|H1 psi> <psi|psi_d>) of the image run,
from U psi0 towards U psi_d0 under H1' = s U H1 U†, is s f; with
H0 = U H0 U† its closed loop is the image of the first, so V and the
concurrence (U local) are equal and f is s times the first run's.
"""

import numpy as np
import pytest

from bellsteer.control import Lyapunov
from bellsteer.dynamics import IntegratorConfig, integrate
from bellsteer.experiments import STATE_LITERALS
from bellsteer.model import X_PRODUCT, ModelParams, Paradigm, hamiltonians

CFG = IntegratorConfig(t_max=300.0)
# The bound, stated before any run, on how far two image runs that take the
# same steps may differ in V, concurrence and f: 64 u. Their frames differ
# only by the rounding of H0's eigenvectors (a few u per entry), and each
# column is an O(1) function of unit vectors formed in a few dozen operations.
ROUNDOFF = 64 * 2.0**-53


def x_state(name):
    return X_PRODUCT.vector_from_z(STATE_LITERALS[name])


def attempts(traj):
    stats = traj.integrator_stats
    return stats.accepted + stats.rejected


@pytest.mark.parametrize("k", [1.0, 0.7])
def test_local_control_z_conjugation_maps_s_onto_s_perp(k):
    """Z(x)I commutes with H0 = 2J Z(x)Z and maps X(x)I to -X(x)I, so it maps
    the local H1(k) = B (X(x)I + k I(x)X) onto -H1(-k), and S onto S⊥:
    |++> -> |-+> and PhiPlus -> PsiPlus. The run from |++> towards PhiPlus
    at k steps SECTORS[0], its image at -k steps SECTORS[1] (p_S = 0 at every
    sample): equal steps, V and concurrence, and opposite f, which pins the
    sign of H1's X(x)I term against its I(x)X term and the index of each
    sector's rows."""
    runs = [integrate(hamiltonians(ModelParams(J=1.0, eta=0.1, k=sign * k),
                                   Paradigm.LOCAL_CONTROL),
                      Lyapunov(kappa=1.0), x_state(state), x_state(target), CFG)
            for sign, state, target in ((1, "|++>", "PhiPlus"), (-1, "|-+>", "PsiPlus"))]
    s, perp = runs
    assert [r.integrator_stats.amplitudes for r in runs] == [2, 2]
    assert np.max(np.abs(s.p_S - 1.0)) <= ROUNDOFF and np.all(perp.p_S == 0.0)
    assert attempts(s) == attempts(perp)
    assert np.array_equal(s.t, perp.t)
    assert np.max(np.abs(s.V - perp.V)) <= ROUNDOFF
    assert np.max(np.abs(s.concurrence - perp.concurrence)) <= ROUNDOFF
    assert np.max(np.abs(s.f + perp.f)) <= ROUNDOFF
    assert s.V[-1] < 1e-6 * s.V[0]  # V moves: the relation is not read off a flat run


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_interaction_control_x_conjugation_flips_the_field(kappa):
    """X(x)I commutes with the interaction H0, a local X field, and
    anticommutes with H1 = 2J Z(x)Z. It fixes |++> and maps PhiPlus to
    PhiMinus. On S's Bloch vector it is the rotation by pi about the axis of
    H0's eigenbasis, which only negates components, so the run towards
    PhiMinus is the run towards PhiPlus bit for bit: equal steps, V and
    concurrence, and exactly negated f. This pins the sign with which the
    target's Bloch vector enters the field."""
    h = hamiltonians(ModelParams(J=1.0, eta=0.1), Paradigm.INTERACTION_CONTROL)
    plus, minus = (integrate(h, Lyapunov(kappa=kappa), x_state("|++>"), x_state(target), CFG)
                   for target in ("PhiPlus", "PhiMinus"))
    assert plus.integrator_stats.amplitudes == minus.integrator_stats.amplitudes == 2
    assert attempts(plus) == attempts(minus)
    assert np.array_equal(plus.V, minus.V)
    assert np.array_equal(plus.concurrence, minus.concurrence)
    assert np.array_equal(plus.f, -minus.f)
    assert np.max(np.abs(plus.f)) > 1e-3  # the field acts, so its sign is seen
