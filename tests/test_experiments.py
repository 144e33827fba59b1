"""Unit tests for config parsing, the scenario runner, sweeps, presets and the
command-line interface."""

import csv
import dataclasses
import io
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsteer import experiments
from bellsteer.cli import main
from bellsteer.control import Geometric, Lyapunov
from bellsteer.dynamics import IntegrationError, IntegratorConfig
from bellsteer.experiments import (
    CSV_HEADER,
    ConfigError,
    OutputPaths,
    STATE_LITERALS,
    ScenarioConfig,
    SweepConfig,
    apply_axis,
    parse_config_text,
    parse_state,
    preset_scenarios,
    run_preset,
    run_scenario,
    run_sweep,
    scenario_from_mapping,
    sweep_from_mapping,
    write_sweep_csv,
    write_trajectory_csv,
)
from bellsteer.model import BellName, ModelParams, Paradigm, Z_PRODUCT, bell_state
from oracles import csv_text_reference

BASE_LINES = {
    "model.J": "1",
    "model.eta": "0.1",
    "paradigm": "LocalControl",
    "law.type": "Lyapunov",
    "law.kappa": "1",
    "initial_state": "|++>",
    "target_state": "PhiPlus",
    "integrator.t_max": "2",
}


def base_mapping(**overrides):
    d = dict(BASE_LINES)
    for key, value in overrides.items():
        if value is None:
            d.pop(key, None)
        else:
            d[key] = value
    return d


def config_text(mapping):
    return "\n".join(f"{k} = {v}" for k, v in mapping.items()) + "\n"


def mapping_with(key, value):
    """base_mapping with one key set; law.* keys of Geometric switch the law."""
    context = {"law.type": "Geometric", "law.kappa": None} if key == "law.t0" else {}
    return base_mapping(**context, **{key: value})


#: Every dataclass field a config may set, with a valid value and its parse.
SCHEMA = [
    ("model.J", "2", 2.0),
    ("model.eta", "0.2", 0.2),
    ("model.k", "0.5", 0.5),
    ("law.kappa", "0.5", 0.5),
    ("law.sign", "-1", -1),
    ("law.t0", "3", 3.0),
    ("integrator.t_max", "3", 3.0),
    ("integrator.dt", "0.02", 0.02),
    ("integrator.rel_tol", "1e-8", 1e-8),
    ("integrator.abs_tol", "1e-10", 1e-10),
    ("integrator.sample_every", "0.05", 0.05),
    ("integrator.v_stop", "1e-6", 1e-6),
]


class TestParseConfigText:
    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nmodel.J = 1  # inline\n\n"
        assert parse_config_text(text) == {"model.J": "1"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_value_may_contain_equals(self):
        text = "initial_state = basis:ZProduct; amps = (1,0),(0,0),(0,0),(0,0)\n"
        mapping = parse_config_text(text)
        assert mapping["initial_state"].startswith("basis:ZProduct")


class TestScenarioFromMapping:
    def test_full_round_trip(self):
        cfg = scenario_from_mapping(base_mapping())
        assert cfg.model.J == 1.0 and cfg.model.eta == 0.1 and cfg.model.k == 1.0
        assert cfg.paradigm is Paradigm.LOCAL_CONTROL
        assert isinstance(cfg.law, Lyapunov) and cfg.law.kappa == 1.0
        assert cfg.integrator.t_max == 2.0
        assert cfg.integrator.dt == 0.01  # defaults applied
        assert cfg.integrator.sample_every == 0.1
        assert cfg.outputs.trajectory_csv is None
        assert cfg.seed is None
        assert np.linalg.norm(cfg.initial_state) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "key",
        [
            "model.J",
            "paradigm",
            "law.type",
            "initial_state",
            "integrator.t_max",
            "model.eta",
            "law.kappa",
            "law.t0",
        ],
    )
    def test_missing_required_key_named(self, key):
        mapping = mapping_with(key, None)
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            scenario_from_mapping(mapping)

    def test_schema_is_the_dataclass_fields(self):
        sections = [
            ("model", ModelParams),
            ("law", Lyapunov),
            ("law", Geometric),
            ("integrator", IntegratorConfig),
        ]
        fields = {f"{s}.{f.name}" for s, cls in sections for f in dataclasses.fields(cls)}
        assert {key for key, _, _ in SCHEMA} == fields

    @pytest.mark.parametrize("key,raw,value", SCHEMA)
    def test_field_lands(self, key, raw, value):
        cfg = scenario_from_mapping(mapping_with(key, raw))
        section, name = key.split(".")
        got = getattr(getattr(cfg, section), name)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize(
        "key,raw", [(key, "abc") for key, _, _ in SCHEMA] + [("law.sign", "1.5")]
    )
    def test_non_numeric_value_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key}: not "):
            scenario_from_mapping(mapping_with(key, raw))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            scenario_from_mapping(base_mapping(**{"model.mass": "3"}))

    def test_bad_paradigm(self):
        with pytest.raises(ConfigError, match="paradigm"):
            scenario_from_mapping(base_mapping(paradigm="Telepathy"))

    def test_bad_law_type(self):
        with pytest.raises(ConfigError, match="law.type"):
            scenario_from_mapping(base_mapping(**{"law.type": "Bang"}))

    def test_geometric_law(self):
        mapping = base_mapping(**{"law.type": "Geometric", "law.t0": "5", "law.kappa": None})
        cfg = scenario_from_mapping(mapping)
        assert isinstance(cfg.law, Geometric) and cfg.law.t0 == 5.0

    def test_free_evolution_law(self):
        mapping = base_mapping(**{"law.type": "none", "law.kappa": None})
        assert scenario_from_mapping(mapping).law is None

    def test_model_validation_surfaces(self):
        with pytest.raises(ConfigError, match="J must be positive"):
            scenario_from_mapping(base_mapping(**{"model.J": "-1"}))

    def test_seed_and_outputs(self):
        mapping = base_mapping(
            seed="42",
            **{"outputs.trajectory_csv": "a.csv", "outputs.report_json": "a.json"},
        )
        cfg = scenario_from_mapping(mapping)
        assert cfg.seed == 42
        assert cfg.outputs == OutputPaths("a.csv", "a.json")

    def test_v_stop_none_literal(self):
        cfg = scenario_from_mapping(base_mapping(**{"integrator.v_stop": "none"}))
        assert cfg.integrator.v_stop is None


class TestStateParsing:
    def test_all_literals_are_unit_vectors(self):
        for name in STATE_LITERALS:
            v = parse_state(name, "initial_state")
            assert np.linalg.norm(v) == pytest.approx(1.0), name

    def test_bell_literals_match_constructor(self):
        for bn in BellName:
            v = parse_state(bn.value, "initial_state")
            assert np.allclose(v, bell_state(bn, Z_PRODUCT))

    def test_explicit_amplitudes_in_x_basis(self):
        text = "basis:XProduct; amps = (0.9486832980505138,0),(0,0),(0,0),(0.31622776601683794,0)"
        v = parse_state(text, "initial_state")
        # sqrt(0.9)|++> + sqrt(0.1)|--> expressed back in Z coordinates.
        expected = np.sqrt(0.9) * STATE_LITERALS["|++>"] + np.sqrt(0.1) * STATE_LITERALS["|-->"]
        assert np.allclose(v, expected)

    def test_complex_amplitudes(self):
        s = 1.0 / np.sqrt(2.0)
        text = f"basis:ZProduct; amps = ({s},0),(0,{s}),(0,0),(0,0)"
        v = parse_state(text, "initial_state")
        assert np.allclose(v, [s, 1j * s, 0, 0])

    def test_wrong_pair_count(self):
        with pytest.raises(ConfigError, match="amplitude pairs"):
            parse_state("basis:ZProduct; amps = (1,0),(0,0)", "initial_state")

    def test_unnormalized_rejected_naming_field(self):
        with pytest.raises(ConfigError, match="target_state.*not normalized"):
            parse_state("basis:ZProduct; amps = (1,0),(1,0),(0,0),(0,0)", "target_state")

    def test_unknown_literal(self):
        with pytest.raises(ConfigError, match="unknown state"):
            parse_state("|cat>", "initial_state")

    def test_unknown_basis_tag(self):
        with pytest.raises(ConfigError, match="basis tag"):
            parse_state("basis:WProduct; amps = (1,0),(0,0),(0,0),(0,0)", "initial_state")


class TestSweepFromMapping:
    def sweep_mapping(self, **overrides):
        d = base_mapping(
            **{
                "sweep.axis": "law.kappa",
                "sweep.values": "0.5, 1, 2",
                "sweep.parallel": "2",
            }
        )
        for key, value in overrides.items():
            if value is None:
                d.pop(key, None)
            else:
                d[key] = value
        return d

    def test_round_trip(self):
        cfg = sweep_from_mapping(self.sweep_mapping())
        assert cfg.axis == "law.kappa"
        assert cfg.values == (0.5, 1.0, 2.0)
        assert cfg.parallel == 2
        assert cfg.out is None

    def test_missing_axis(self):
        with pytest.raises(ConfigError, match="sweep.axis"):
            sweep_from_mapping(self.sweep_mapping(**{"sweep.axis": None}))

    def test_empty_values(self):
        with pytest.raises(ConfigError, match="sweep.values"):
            sweep_from_mapping(self.sweep_mapping(**{"sweep.values": " , "}))

    def test_bad_parallel(self):
        with pytest.raises(ConfigError, match="parallel"):
            sweep_from_mapping(self.sweep_mapping(**{"sweep.parallel": "0"}))

    @pytest.mark.parametrize(
        "axis,msg",
        [
            ("foo.bar", "not of the form"),
            ("law.gamma", "no field"),
            ("law", "not of the form"),
        ],
    )
    def test_bad_axis(self, axis, msg):
        with pytest.raises(ConfigError, match=msg):
            sweep_from_mapping(self.sweep_mapping(**{"sweep.axis": axis}))

    def test_axis_needs_law(self):
        mapping = self.sweep_mapping(
            **{"law.type": "none", "law.kappa": None, "sweep.axis": "law.t0"}
        )
        with pytest.raises(ConfigError, match="law is None"):
            sweep_from_mapping(mapping)

    def test_apply_axis_copies(self):
        cfg = scenario_from_mapping(base_mapping())
        changed = apply_axis(cfg, "law.kappa", 2.0)
        assert changed.law.kappa == 2.0
        assert cfg.law.kappa == 1.0
        assert changed.model is cfg.model


#: Every key outside the model, law and integrator sections, with a valid
#: value and its parse.
OTHER_SCHEMA = [
    ("outputs.trajectory_csv", "a.csv", "a.csv"),
    ("outputs.report_json", "a.json", "a.json"),
    ("seed", "42", 42),
    ("sweep.axis", "model.eta", "model.eta"),
    ("sweep.values", "0.5, 2", (0.5, 2.0)),
    ("sweep.parallel", "3", 3),
    ("sweep.out", "t.csv", "t.csv"),
]

#: Every key whose field defaults to None.
NONE_KEYS = [
    "seed", "outputs.trajectory_csv", "outputs.report_json", "sweep.out", "integrator.v_stop"
]


def landed(key, raw):
    """The value ``key = raw`` lands in; sweep.* keys go through
    sweep_from_mapping, the others through scenario_from_mapping."""
    if key.startswith("sweep."):
        overrides = {"sweep.axis": "law.kappa", "sweep.values": "1", key: raw}
        cfg = sweep_from_mapping(base_mapping(**overrides))
        key = key.removeprefix("sweep.")
    else:
        cfg = scenario_from_mapping(base_mapping(**{key: raw}))
    for name in key.split("."):
        cfg = getattr(cfg, name)
    return cfg


class TestTypedKeys:
    def test_table_is_the_other_fields(self):
        keys = {f"outputs.{f.name}" for f in dataclasses.fields(OutputPaths)}
        keys |= {f"sweep.{f.name}" for f in dataclasses.fields(SweepConfig) if f.name != "base"}
        assert {key for key, _, _ in OTHER_SCHEMA} == keys | {"seed"}

    @pytest.mark.parametrize("key,raw,value", OTHER_SCHEMA)
    def test_field_lands(self, key, raw, value):
        got = landed(key, raw)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize(
        "key,raw",
        [("seed", "1.5"), ("seed", "abc"), ("sweep.parallel", "2.5"), ("sweep.parallel", "two")],
    )
    def test_non_integer_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{key}: not an integer"):
            landed(key, raw)

    def test_none_keys_are_the_fields_defaulting_to_none(self):
        sections = [
            ("", ScenarioConfig),
            ("model.", ModelParams),
            ("law.", Lyapunov),
            ("law.", Geometric),
            ("integrator.", IntegratorConfig),
            ("outputs.", OutputPaths),
            ("sweep.", SweepConfig),
        ]
        keys = {
            prefix + f.name
            for prefix, cls in sections
            for f in dataclasses.fields(cls)
            if f.default is None
        }
        assert keys == set(NONE_KEYS)

    @pytest.mark.parametrize("key", NONE_KEYS)
    def test_none_lands_as_none(self, key):
        assert landed(key, "none") is None


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeConfigs:
    """The README's config blocks: a scenario, a state line and a sweep."""

    @pytest.fixture(scope="class")
    def blocks(self):
        text = README.read_text(encoding="utf-8")
        found = re.findall(r"^```ini\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
        scenario, state, sweep = (parse_config_text(block) for block in found)
        return scenario, state, sweep

    def test_scenario_block(self, blocks):
        scenario, _, _ = blocks
        assert isinstance(scenario_from_mapping(scenario), ScenarioConfig)

    def test_sweep_block(self, blocks):
        scenario, _, sweep = blocks
        assert all(key.startswith("sweep.") for key in sweep)
        assert isinstance(sweep_from_mapping({**scenario, **sweep}), SweepConfig)

    def test_state_line(self, blocks):
        _, state, _ = blocks
        assert list(state) == ["initial_state"]
        v = parse_state(state["initial_state"], "initial_state")
        assert np.linalg.norm(v) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = scenario_from_mapping(base_mapping())
    return cfg, *run_scenario(cfg, label="tiny")


class TestRunScenarioAndOutputs:
    def test_report_contents(self, tiny_run):
        cfg, traj, report = tiny_run
        assert report["label"] == "tiny"
        assert report["paradigm"] == "LocalControl"
        assert report["law"] == {"type": "Lyapunov", "kappa": 1.0, "sign": 1}
        assert report["samples"] == len(traj)
        assert report["final_V"] == pytest.approx(float(traj.V[-1]))
        assert report["stalled"] is False
        assert 0.0 <= report["max_drive_ratio"] < 1.0
        assert set(report["peak"]) == {"t_first", "c_max", "fluctuation_amplitude"}

    def test_drive_ratio_null_on_zero_drift(self, tmp_path):
        # Under interaction control the drift is the local field, zero at eta = 0,
        # so max|f|·‖H1‖/‖H0‖ is undefined. A bare NaN would not be JSON.
        path = tmp_path / "report.json"
        cfg = scenario_from_mapping(base_mapping(**{
            "model.eta": "0", "paradigm": "InteractionControl",
            "integrator.t_max": "5", "outputs.report_json": str(path),
        }))
        _, report = run_scenario(cfg)
        assert report["max_drive_ratio"] is None

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        assert json.loads(path.read_text(), parse_constant=reject)["max_drive_ratio"] is None

    @pytest.mark.parametrize(
        "overrides,law_keys",
        [
            ({}, ["type", "kappa", "sign"]),
            ({"law.type": "Geometric", "law.t0": "1", "law.kappa": None}, ["type", "t0"]),
            ({"law.type": "none", "law.kappa": None}, None),
        ],
    )
    def test_report_echo_key_order(self, overrides, law_keys):
        _, report = run_scenario(scenario_from_mapping(base_mapping(**overrides)))
        assert list(report["model"]) == ["J", "eta", "k"]
        assert list(report["integrator"]) == [
            "t_max", "dt", "rel_tol", "abs_tol", "sample_every", "v_stop"
        ]
        law = report["law"]
        assert (None if law is None else list(law)) == law_keys

    def test_report_integrator_stats(self, tiny_run):
        _, traj, report = tiny_run
        stats = json.loads(json.dumps(report))["integrator_stats"]
        assert stats == dataclasses.asdict(traj.metadata.integrator_stats)
        assert list(stats) == [
            "accepted", "rejected", "rhs_evals", "h_min", "h_max", "h_median",
            "max_norm_drift", "max_sector_drift", "amplitudes",
        ]
        # Open-loop runs are exact: no steps to count.
        open_loop = base_mapping(**{"law.type": "none", "law.kappa": None})
        assert run_scenario(scenario_from_mapping(open_loop))[1]["integrator_stats"] is None

    def test_fidelity_consistent_with_v_for_pure_states(self, tiny_run):
        # For pure rho and pure target, V = 1 - fidelity.
        _, traj, report = tiny_run
        assert report["final_fidelity"] == pytest.approx(
            1.0 - report["final_V"], abs=1e-8
        )

    def test_csv_schema_and_roundtrip(self, tiny_run, tmp_path):
        _, traj, _ = tiny_run
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(traj) + 1
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert np.array_equal(data["t"], traj.t)
        assert np.array_equal(data["V"], traj.V)
        assert np.array_equal(data["concurrence"], traj.concurrence)
        assert np.array_equal(data["p_S"], traj.p_S)

    def test_csv_deterministic(self, tiny_run, tmp_path):
        _, traj, _ = tiny_run
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, a)
        write_trajectory_csv(traj, b)
        assert a.read_bytes() == b.read_bytes()

    def test_output_files_written(self, tmp_path):
        mapping = base_mapping(
            **{
                "outputs.trajectory_csv": str(tmp_path / "out.csv"),
                "outputs.report_json": str(tmp_path / "out.json"),
            }
        )
        cfg = scenario_from_mapping(mapping)
        _, report = run_scenario(cfg)
        assert (tmp_path / "out.csv").exists()
        loaded = json.loads((tmp_path / "out.json").read_text())
        assert loaded["final_V"] == pytest.approx(report["final_V"])

    def test_abort_writes_diagnostic_report(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise IntegrationError("numerical breakdown", t=1.25)

        monkeypatch.setattr("bellsteer.experiments.integrate", boom)
        mapping = base_mapping(**{"outputs.report_json": str(tmp_path / "err.json")})
        cfg = scenario_from_mapping(mapping)
        with pytest.raises(IntegrationError):
            run_scenario(cfg, label="doomed")
        diag = json.loads((tmp_path / "err.json").read_text())
        assert "numerical breakdown" in diag["error"]
        assert diag["aborted_at"] == 1.25


class TestFidelityAndPurity:
    """The CSV's fidelity Tr(rho rho_d) and purity Tr(rho²) are row-wise sums
    over the stacks; the slow path is the trace of each matrix product. On
    these two runs the last fidelity read as trace(rho @ rho_d) differs from
    the row-wise sum in its last bit, so the report must take the CSV's."""

    @pytest.fixture(params=[("figure1_runs", "figure1_B0.1"), ("figure3_runs", "figure3_k1")],
                    ids=["geometric", "lyapunov"])
    def run(self, request):
        fixture, label = request.param
        return request.getfixturevalue(fixture)[label]

    def test_columns_match_trace_of_products(self, run):
        traj, _ = run
        fid, pur = traj.fidelity, traj.purity
        assert np.max(np.abs(fid - [np.trace(r @ r_d).real
                                    for r, r_d in zip(traj.rho, traj.rho_d)])) <= 1e-15
        assert np.max(np.abs(pur - [np.trace(r @ r).real for r in traj.rho])) <= 1e-15

    def test_report_fidelity_is_the_last_csv_row(self, run, tmp_path):
        traj, report = run
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        last = dict(zip(CSV_HEADER.split(","), path.read_text().splitlines()[-1].split(",")))
        assert float(last["fidelity"]) == report["final_fidelity"]


def _percent_rows(table: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()).encode()


def _next(x: float, toward: float) -> float:
    return float(np.nextafter(x, toward))


class TestCsvText:
    """write_trajectory_csv formats a whole table in numpy passes; its text is
    '%.17g' % x for every float, byte for byte."""

    NAMED = [
        # where %g moves between fixed and exponent form, and their neighbours
        1e-5, _next(1e-5, 0), _next(1e-5, 1), 1e-4, _next(1e-4, 0), _next(1e-4, 1),
        1e16, _next(1e16, 0), _next(1e16, np.inf), 1e17, _next(1e17, 0), _next(1e17, np.inf),
        # the edges of the vectorised range, inside and out
        1e-250, _next(1e-250, 0), _next(1e-250, 1), 1e250, _next(1e250, 0),
        _next(1e250, np.inf),
        # fl(10^E) below 10^E, whose 17-digit significand at E - 1 rounds up to 10^17
        1e-14, 1e98, 1e23,
        # integers keep their zeros and take no point
        100.0, 1200.0, 10.0, 1.0, 300.0, 2.0**53,
        # exact ties at the 18th digit, kept even and rounded up
        100000000001 / 1024, 100000000003 / 1024,
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        0.0, np.inf, np.nan, 0.1, 1 / 3, 12.5, 299.90000000000003, 3.6073296937853398e-17,
    ]

    @staticmethod
    def column(values) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(-1, 1)

    @pytest.mark.parametrize("x", NAMED)
    def test_named_values(self, x):
        table = self.column([x, -x])
        assert experiments._csv_rows(table) == _percent_rows(table)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(0, 2**64 - 1), st.floats().map(
            lambda x: int(np.float64(x).view(np.uint64)))), min_size=1, max_size=70),
        st.integers(1, 7),
    )
    def test_any_bit_pattern(self, bits, cols):
        # every float64: nan payloads, signed zeros and infinities, subnormals
        bits = bits * cols
        table = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, cols)
        assert experiments._csv_rows(table) == _percent_rows(table)

    def test_random_decades(self):
        rng = np.random.default_rng(20261019)
        table = rng.standard_normal((3000, 7)) * 10.0 ** rng.integers(-300, 300, (3000, 7))
        assert experiments._csv_rows(table) == _percent_rows(table)

    def test_blocks(self, tmp_path):
        # more rows than one formatting pass takes
        n = 2 * experiments._CSV_BLOCK + 3
        rng = np.random.default_rng(7)
        traj = SimpleNamespace(**{name: rng.standard_normal(n) * 10.0 ** rng.integers(-9, 9, n)
                                  for name in CSV_HEADER.split(",")})
        write_trajectory_csv(traj, tmp_path / "long.csv")
        assert (tmp_path / "long.csv").read_bytes() == csv_text_reference(traj).encode()

    @pytest.mark.parametrize("fixture", ["figure1_runs", "figure2_runs", "figure3_runs"])
    def test_preset_csvs_are_the_reference_text(self, fixture, request, tmp_path):
        for label, (traj, _) in request.getfixturevalue(fixture).items():
            write_trajectory_csv(traj, tmp_path / f"{label}.csv")
            text = (tmp_path / f"{label}.csv").read_bytes()
            assert text == csv_text_reference(traj).encode(), label

    def test_figure4_runs_are_figure2_and_figure3(self):
        # so the preset test above covers every figure4 CSV without stepping it again
        others = dict(preset_scenarios("figure2") + preset_scenarios("figure3"))
        for label, cfg in preset_scenarios("figure4"):
            other = others[label.replace("figure4_local_", "figure2_")
                           .replace("figure4_interaction_", "figure3_")]
            fields = ("model", "paradigm", "law", "integrator", "outputs", "seed")
            assert [getattr(cfg, f) for f in fields] == [getattr(other, f) for f in fields]
            assert np.array_equal(cfg.initial_state, other.initial_state)
            assert np.array_equal(cfg.target_state, other.target_state)


class TestClosedLoopColumns:
    def test_run_writes_outputs_without_density_matrices(self, monkeypatch, tmp_path):
        # A Lyapunov run takes every column from psi~: the target's evolution, the
        # invariant pass and the density-matrix forms of f, V, C and p_S are not
        # reached, and the Trajectory forms neither rho nor rho_d.
        def refuse(*args, **kwargs):
            raise AssertionError("a density-matrix path was called")

        for name in ("_evolve", "_check_invariants", "control_field", "lyapunov_value",
                     "subspace_populations"):
            monkeypatch.setattr(f"bellsteer.dynamics.{name}", refuse)
        monkeypatch.setattr("bellsteer.metrics.concurrence", refuse)
        cfg = dict(preset_scenarios("figure4"))["figure4_interaction_k0.5"]
        outputs = OutputPaths(str(tmp_path / "run.csv"), str(tmp_path / "run.json"))
        traj, report = run_scenario(dataclasses.replace(cfg, outputs=outputs), "run")
        assert "rho" not in vars(traj) and "rho_d" not in vars(traj)
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == len(traj) + 1 == 3002
        assert json.loads((tmp_path / "run.json").read_text()) == report


class TestRouting:
    """Open-loop laws are propagated exactly; only feedback reaches integrate."""

    @pytest.fixture
    def no_integrate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("integrate called")

        monkeypatch.setattr("bellsteer.experiments.integrate", refuse)

    @staticmethod
    def open_loop(law_type="Geometric", **overrides):
        mapping = base_mapping(**{"law.type": law_type, "law.kappa": None}, **overrides)
        return scenario_from_mapping(mapping)

    def test_open_loop_scenarios_skip_integrate(self, no_integrate):
        for cfg in (self.open_loop(**{"law.t0": "1"}), self.open_loop("none")):
            traj, report = run_scenario(cfg)
            assert len(traj) == report["samples"] == 21

    def test_switch_sweep_skips_integrate(self, no_integrate):
        base = self.open_loop(**{"law.t0": "1"})
        rows = run_sweep(SweepConfig(base=base, axis="law.t0", values=(0.5, 1.5)))
        assert [row["error"] for row in rows] == [None, None]
        assert rows[0]["final_concurrence"] != rows[1]["final_concurrence"]

    @pytest.mark.parametrize(
        "overrides", [{}, {"law.type": "Geometric", "law.kappa": None, "law.t0": "1"}]
    )
    def test_hamiltonians_built_once_per_run(self, monkeypatch, overrides):
        calls = []
        real = experiments.hamiltonians
        monkeypatch.setattr(experiments, "hamiltonians", lambda *a: calls.append(a) or real(*a))
        run_scenario(scenario_from_mapping(base_mapping(**overrides)))
        assert len(calls) == 1

    def test_feedback_scenario_uses_integrate(self, no_integrate):
        with pytest.raises(RuntimeError, match="integrate called"):
            run_scenario(scenario_from_mapping(base_mapping()))

    def test_exact_path_abort_writes_diagnostic_report(self, tmp_path, monkeypatch):
        # An initial state of trace 0.9 trips the exact path's trace check at
        # the first sample after t=0.
        monkeypatch.setattr(
            "bellsteer.experiments.outer", lambda v: 0.9 * np.outer(v, np.conj(v))
        )
        cfg = self.open_loop(
            **{"law.t0": "1", "outputs.report_json": str(tmp_path / "err.json")}
        )
        with pytest.raises(IntegrationError, match="trace"):
            run_scenario(cfg, label="doomed")
        diag = json.loads((tmp_path / "err.json").read_text())
        assert "trace drift" in diag["error"]
        assert diag["aborted_at"] == pytest.approx(0.1)


class TestRunSweep:
    def make_sweep(self, values, parallel=1, out=None):
        base = scenario_from_mapping(base_mapping())
        return SweepConfig(base=base, axis="law.kappa", values=values,
                           parallel=parallel, out=out)

    def test_rows_in_input_order(self):
        rows = run_sweep(self.make_sweep((2.0, 0.5)))
        assert [row["value"] for row in rows] == [2.0, 0.5]
        assert all(row["error"] is None for row in rows)

    def test_parallel_runs_in_process(self, monkeypatch):
        # sweep.parallel has no effect: every row runs in the calling process,
        # so a sweep needs no fork even when CPUs and parallel allow workers.
        def no_fork():
            raise OSError("fork is not available")

        monkeypatch.setattr("os.fork", no_fork)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        rows = run_sweep(self.make_sweep((2.0, 0.5, 1.0, 4.0), parallel=4))
        assert [row["value"] for row in rows] == [2.0, 0.5, 1.0, 4.0]
        assert [row["error"] for row in rows] == [None] * 4

    def test_row_failure_isolated(self):
        rows = run_sweep(self.make_sweep((1.0, -1.0)))
        assert rows[0]["error"] is None
        assert "kappa" in rows[1]["error"]
        assert rows[1]["final_V"] is None

    def test_table_csv(self, tmp_path):
        rows = run_sweep(self.make_sweep((1.0, -1.0)))
        path = tmp_path / "table.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "value,final_concurrence,final_V,t_first,rate,error"
        assert len(lines) == 3
        assert "kappa" in lines[2]


class TestPresets:
    def test_figure1_wiring(self):
        runs = dict(preset_scenarios("figure1"))
        assert sorted(runs) == ["figure1_B0.1", "figure1_B0.2", "figure1_B0.4"]
        for label, cfg in runs.items():
            assert isinstance(cfg.law, Geometric)
            assert cfg.law.t0 == cfg.integrator.t_max  # field on for the whole run
            assert cfg.paradigm is Paradigm.LOCAL_CONTROL
            assert np.allclose(cfg.initial_state, STATE_LITERALS["|00>"])
        assert runs["figure1_B0.1"].integrator.t_max == 200.0
        assert runs["figure1_B0.4"].integrator.t_max == 20.0
        assert runs["figure1_B0.2"].model.eta == 0.2

    @pytest.mark.parametrize("name,paradigm", [
        ("figure2", Paradigm.LOCAL_CONTROL),
        ("figure3", Paradigm.INTERACTION_CONTROL),
    ])
    def test_lyapunov_presets(self, name, paradigm):
        runs = preset_scenarios(name)
        assert [label for label, _ in runs] == [f"{name}_k0.5", f"{name}_k1", f"{name}_k2"]
        for _, cfg in runs:
            assert cfg.paradigm is paradigm
            assert isinstance(cfg.law, Lyapunov)
            assert cfg.integrator.t_max == 300.0
            assert cfg.model.eta == 0.1
        assert [cfg.law.kappa for _, cfg in runs] == [0.5, 1.0, 2.0]

    def test_figure4_covers_both_paradigms(self):
        runs = preset_scenarios("figure4")
        assert len(runs) == 6
        paradigms = {cfg.paradigm for _, cfg in runs}
        assert paradigms == {Paradigm.LOCAL_CONTROL, Paradigm.INTERACTION_CONTROL}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_scenarios("figure9")

    def test_run_preset_writes_labelled_files(self, tmp_path, monkeypatch):
        tiny = scenario_from_mapping(base_mapping())
        monkeypatch.setattr(
            "bellsteer.experiments.preset_scenarios", lambda name: [("tiny", tiny)]
        )
        results = run_preset("anything", tmp_path, seed=7)
        assert len(results) == 1
        assert (tmp_path / "tiny.csv").exists()
        report = json.loads((tmp_path / "tiny.json").read_text())
        assert report["label"] == "tiny"
        assert report["seed"] == 7


class TestCli:
    def write_cfg(self, tmp_path, mapping, name="run.cfg"):
        path = tmp_path / name
        path.write_text(config_text(mapping))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, base_mapping())
        assert main(["validate", cfg]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_names_bad_field(self, tmp_path, capsys):
        bad = base_mapping(
            initial_state="basis:ZProduct; amps = (1,0),(1,0),(0,0),(0,0)"
        )
        cfg = self.write_cfg(tmp_path, bad)
        assert main(["validate", cfg]) == 2
        assert "initial_state" in capsys.readouterr().err

    def test_run_writes_outputs_and_is_deterministic(self, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        mapping = base_mapping(
            **{
                "outputs.trajectory_csv": str(out_csv),
                "outputs.report_json": str(tmp_path / "rep.json"),
            }
        )
        cfg = self.write_cfg(tmp_path, mapping)
        assert main(["run", cfg]) == 0
        first = out_csv.read_bytes()
        assert main(["run", cfg]) == 0
        assert out_csv.read_bytes() == first
        assert "final_V" in capsys.readouterr().out

    def test_run_seed_recorded(self, tmp_path):
        report_path = tmp_path / "rep.json"
        mapping = base_mapping(**{"outputs.report_json": str(report_path)})
        cfg = self.write_cfg(tmp_path, mapping)
        assert main(["run", cfg, "--seed", "11"]) == 0
        assert json.loads(report_path.read_text())["seed"] == 11

    def test_missing_config_file(self, capsys):
        assert main(["run", "/no/such/file.cfg"]) == 2
        assert "error" in capsys.readouterr().err

    def test_usage_errors(self):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["preset", "figure9"]) == 2

    def test_sweep_command(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        mapping = base_mapping(
            **{
                "sweep.axis": "law.kappa",
                "sweep.values": "0.5, 1",
                "sweep.out": str(table),
            }
        )
        cfg = self.write_cfg(tmp_path, mapping, "sweep.cfg")
        assert main(["sweep", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("value,final_concurrence")
        assert table.exists()

    def test_sweep_stdout_is_the_csv_even_with_a_comma_in_an_error(self, tmp_path, capsys):
        # The error of the t0 = -1 row reads "ValueError: t0 must be ..., got -1.0".
        table = tmp_path / "table.csv"
        mapping = mapping_with("law.t0", "10")
        mapping.update({"sweep.axis": "law.t0", "sweep.values": "10, -1",
                        "sweep.out": str(table)})
        assert main(["sweep", self.write_cfg(tmp_path, mapping, "sweep.cfg")]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3
        assert [len(row) for row in rows] == [6, 6, 6]
        assert "t0 must be nonnegative" in rows[2][5]
        assert out == table.read_text()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("model.J", "nan"),
            ("model.eta", "nan"),
            ("model.k", "inf"),
            ("law.kappa", "nan"),
            ("law.t0", "nan"),
            ("integrator.t_max", "nan"),
            ("integrator.t_max", "inf"),
            ("integrator.dt", "nan"),
            ("integrator.rel_tol", "nan"),
            ("integrator.abs_tol", "inf"),
            ("integrator.sample_every", "nan"),
            ("integrator.v_stop", "nan"),
            ("initial_state", "basis:ZProduct; amps = (nan,0),(0,0),(0,0),(0,0)"),
            ("target_state", "basis:ZProduct; amps = (1,0),(0,0),(0,inf),(0,0)"),
            ("sweep.values", "1, nan"),
        ],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, key, value):
        context = {
            "law.t0": {"law.type": "Geometric", "law.kappa": None},
            "sweep.values": {"sweep.axis": "law.kappa"},
        }.get(key, {})
        cfg = self.write_cfg(tmp_path, base_mapping(**context, **{key: value}))
        command = "sweep" if key.startswith("sweep.") else "run"
        assert main(["validate", cfg]) == 2
        assert main([command, cfg]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "J,exits", [("1e6", (0, 3)), ("1e8", (0, 3)), ("1e12", (0, 3)), ("1e200", (2,))]
    )
    def test_large_scale_models(self, tmp_path, capsys, J, exits):
        # From |00>, over a few periods of the 4J drift: a run ends or is
        # aborted (exit 3), with no traceback; a model whose Hamiltonian norm
        # overflows is a config error for validate and run alike.
        mapping = base_mapping(
            **{"model.J": J, "initial_state": "|00>", "integrator.t_max": "1e-6"}
        )
        cfg = self.write_cfg(tmp_path, mapping)
        assert main(["validate", cfg]) == (2 if exits == (2,) else 0)
        assert main(["run", cfg]) in exits
        if exits == (2,):
            assert "Hamiltonian norm is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_non_utf8_config_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(config_text(base_mapping()).encode() + b"# caf\xe9 \xff\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "latin1.cfg" in err

    def test_integration_abort_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise IntegrationError("numerical breakdown", t=0.5)

        monkeypatch.setattr("bellsteer.experiments.integrate", boom)
        cfg = self.write_cfg(tmp_path, base_mapping())
        assert main(["run", cfg]) == 3

    def test_preset_command_writes_files(self, tmp_path, capsys):
        assert main(["preset", "figure1", "--out", str(tmp_path)]) == 0
        for b in ("0.1", "0.2", "0.4"):
            assert (tmp_path / f"figure1_B{b}.csv").exists()
            assert (tmp_path / f"figure1_B{b}.json").exists()
        assert "figure1_B0.4" in capsys.readouterr().out
