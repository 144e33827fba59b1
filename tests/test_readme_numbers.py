"""The physics numbers README quotes, recomputed.

Each entry of NUMBERS is a quote from README.md, the number in it as
printed, and a function that recomputes the value. The quote must be in
README (whitespace runs read as one space), so an edit there cannot orphan
an entry, and the recomputed value, printed with the quoted number's digits,
must read the quoted number.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest

from bellsteer import (
    BellName,
    IntegratorConfig,
    Lyapunov,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    bell_state,
    hamiltonians,
    integrate,
)
from bellsteer.experiments import run_preset

README = Path(__file__).resolve().parents[1] / "README.md"


@cache
def zero_plus_run(paradigm):
    """README, "Block structure and reachability": from |0+> towards Phi+
    at eta = 0.1, k = 0.7, kappa = 2 over t <= 50, stepping four amplitudes."""
    h = hamiltonians(ModelParams(J=1.0, eta=0.1, k=0.7), paradigm)
    psi0 = X_PRODUCT.vector_from_z(np.array([1, 1, 0, 0]) / np.sqrt(2))
    traj = integrate(h, Lyapunov(kappa=2.0), psi0, bell_state(BellName.PHI_PLUS, X_PRODUCT),
                     IntegratorConfig(t_max=50.0))
    assert traj.metadata.integrator_stats.amplitudes == 4
    return traj


def fixed_point_field():
    """README, "Output": the largest |f| that roundoff reaches from |00>
    towards Phi+ under local control at kappa = 2 over t_max = 300."""
    h = hamiltonians(ModelParams(J=1.0, eta=0.1), Paradigm.LOCAL_CONTROL)
    psi0 = X_PRODUCT.vector_from_z(np.array([1, 0, 0, 0]))
    traj = integrate(h, Lyapunov(kappa=2.0), psi0, bell_state(BellName.PHI_PLUS, X_PRODUCT),
                     IntegratorConfig(t_max=300.0))
    assert traj.metadata.stalled
    return float(np.max(np.abs(traj.f)))


@cache
def stepped_presets():
    """The six Lyapunov runs of preset figure4, keyed by label."""
    return {label: traj for label, traj, _ in run_preset("figure4")}


def preset_extreme(paradigm, column, pick):
    """pick (min or max) over the figure4 runs of paradigm of column(traj)."""
    return pick(column(traj) for traj in stepped_presets().values()
                if traj.metadata.paradigm is paradigm)


def norm_drift(traj):
    return traj.metadata.integrator_stats.max_norm_drift


LOCAL, INTERACTION = Paradigm.LOCAL_CONTROL, Paradigm.INTERACTION_CONTROL
NUMBERS = [
    ("the local run ends at `V = 0.526`", "0.526",
     lambda: zero_plus_run(LOCAL).V[-1]),
    ("with a `p_S` spread of 7.3e-11", "7.3e-11",
     lambda: np.ptp(zero_plus_run(LOCAL).p_S)),
    ("the interaction run at `V = 0.690`", "0.690",
     lambda: zero_plus_run(INTERACTION).V[-1]),
    ("with a spread of 1.4e-12", "1.4e-12",
     lambda: np.ptp(zero_plus_run(INTERACTION).p_S)),
    ("to a largest `|f|` of 7.0e-13", "7.0e-13", fixed_point_field),
    ("(`figure4_local_k2` ends at `V` = 1.02e-19)", "1.02e-19",
     lambda: stepped_presets()["figure4_local_k2"].V[-1]),
    ("(9.8e-11 to 1.5e-10 on the interaction presets", "9.8e-11",
     lambda: preset_extreme(INTERACTION, norm_drift, min)),
    ("(9.8e-11 to 1.5e-10 on the interaction presets", "1.5e-10",
     lambda: preset_extreme(INTERACTION, norm_drift, max)),
    ("1.9e-12 to 9.1e-12 on the local ones", "1.9e-12",
     lambda: preset_extreme(LOCAL, norm_drift, min)),
    ("1.9e-12 to 9.1e-12 on the local ones", "9.1e-12",
     lambda: preset_extreme(LOCAL, norm_drift, max)),
    ("`V` never rises between samples by more than 1.7e-16", "1.7e-16",
     lambda: max(np.diff(traj.V).max() for traj in stepped_presets().values())),
]


def printed_like(value: float, quoted: str) -> str:
    """value printed with the digits of quoted: as many decimals, in the
    same notation, with the exponent written as in quoted."""
    mantissa, _, exponent = quoted.partition("e")
    decimals = len(mantissa.partition(".")[2])
    if not exponent:
        return f"{value:.{decimals}f}"
    m, e = f"{value:.{decimals}e}".split("e")
    return f"{m}e{int(e)}"


@pytest.fixture(scope="module")
def readme_text():
    return " ".join(README.read_text(encoding="utf-8").split())


@pytest.mark.parametrize("quote,number,recompute", NUMBERS, ids=[n for _, n, _ in NUMBERS])
def test_quoted_number_is_recomputed(readme_text, quote, number, recompute):
    assert quote in readme_text
    assert number in quote
    value = recompute()
    print(f"README quotes {number}; recomputed {value!r}")
    assert printed_like(value, number) == number


def test_printed_like():
    assert printed_like(0.526172, "0.526") == "0.526"
    assert printed_like(7.294e-11, "7.3e-11") == "7.3e-11"
    assert printed_like(1.4347e-12, "3.3e-12") == "1.4e-12"
    assert printed_like(6.99e-13, "7.0e-13") == "7.0e-13"
    assert printed_like(1.23e-5, "1.2e-5") == "1.2e-5"
