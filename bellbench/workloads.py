"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop: the next run starts when the previous one
returns. A pass times only the calls into bellsteer; the checks run after the
clock stops.

* ``feedback_presets``: the six Lyapunov runs of preset ``figure4``. Nearly all
  of the time is the closed-loop DP5(4) integrator.
* ``constant_field_presets``: preset ``figure1``, open loop with no feedback
  evaluation, so diagnostics and CSV output weigh more.
* ``switch_sweep``: 16 seeded switch times of ``figure1_B0.4`` through
  ``run_sweep`` and its process pool; many short runs, no trajectory CSV.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import reference

#: Absolute tolerance on concurrence and V against the oracle or the recorded
#: reference. It admits the ~5.5e-7 |dV| of a correct pure-state integrator and
#: the ~4e-8 DP5(4) error seen here; a sign flip or a stalled loop misses by
#: more than 1e-2.
TOL = 1e-5
#: Allowed rise of V from one sample to the next in a Lyapunov run.
V_SLACK = 1e-8

CSV_HEADER = "t,V,f,concurrence,fidelity,p_S,purity"
SWEEP_PARALLEL = 2
SWITCH_RANGE = (9.7, 10.7)

_SWEEP_CONFIG = """\
model.J = 1
model.eta = 0.4
paradigm = LocalControl
law.type = Geometric
law.t0 = 20
initial_state = |00>
target_state = PhiPlus
integrator.t_max = 20
seed = {seed}
sweep.axis = law.t0
sweep.values = {values}
sweep.parallel = {parallel}
sweep.out = {out}
"""


def load_bellsteer(root: Path):
    """Import bellsteer from ``root/src``, never from an installed copy."""
    init = root / "src" / "bellsteer" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bellbench: {init} not found; run from a bellsteer checkout")
    sys.path.insert(0, str(root / "src"))
    import bellsteer

    if Path(bellsteer.__file__).resolve() != init.resolve():
        raise SystemExit(f"bellbench: imported bellsteer from {bellsteer.__file__}")
    return bellsteer


@dataclass
class PassResult:
    start: float
    end: float
    calls: list[tuple[float, float]]  # (start, end) of each timed call
    attempted: int
    failed: int
    samples: int
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class PresetWorkload:
    """Runs the scenarios of one preset in turn, each writing CSV and JSON."""

    preset = ""

    def __init__(self, bs, work_dir: Path, seed: int, quick: bool):
        ex = bs.experiments
        self.bs = bs
        self.seed = seed
        self.jobs = []
        for label, cfg in ex.preset_scenarios(self.preset):
            if quick and label not in self.quick_labels:
                continue
            outputs = ex.OutputPaths(
                trajectory_csv=str(work_dir / f"{label}.csv"),
                report_json=str(work_dir / f"{label}.json"),
            )
            self.jobs.append((label, dataclasses.replace(cfg, outputs=outputs, seed=seed)))
        self.digests: dict[str, str] = {}

    def run_pass(self) -> PassResult:
        for _, cfg in self.jobs:
            Path(cfg.outputs.trajectory_csv).unlink(missing_ok=True)
            Path(cfg.outputs.report_json).unlink(missing_ok=True)
        run_scenario = self.bs.experiments.run_scenario
        errors, calls = [], []
        start = perf_counter()
        for label, cfg in self.jobs:
            t = perf_counter()
            try:
                run_scenario(cfg, label)
                errors.append(None)
            except self.bs.IntegrationError as exc:
                errors.append(f"{label}: IntegrationError: {exc}")
            calls.append((t, perf_counter()))
        end = perf_counter()

        result = PassResult(start, end, calls, len(self.jobs), 0, 0)
        for (label, cfg), error in zip(self.jobs, errors):
            if error is None:
                try:
                    table, problems = self._read_outputs(label, cfg)
                except (OSError, ValueError) as exc:
                    table, problems = np.empty((0, 7)), [f"unreadable output: {exc}"]
                if not problems:
                    problems = self.check_table(label, cfg, table)
                error = "; ".join(f"{label}: {p}" for p in problems) or None
            if error is not None:
                result.failed += 1
                result.problems.append(error)
            else:
                result.samples += len(table)
        return result

    def _read_outputs(self, label: str, cfg) -> tuple[np.ndarray, list[str]]:
        data = Path(cfg.outputs.trajectory_csv).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.digests.setdefault(label, digest) != digest:
            problems.append("trajectory CSV differs from the first pass")
        header, _, body = data.decode().partition("\n")
        if header != CSV_HEADER:
            return np.empty((0, 7)), problems + [f"CSV header {header!r}"]
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        report = json.loads(Path(cfg.outputs.report_json).read_text())
        if report.get("seed") != self.seed:
            problems.append(f"report seed {report.get('seed')!r} != {self.seed}")
        if report.get("samples") != len(table):
            problems.append(f"report samples {report.get('samples')} != {len(table)} CSV rows")
        for key, col in (("final_V", 1), ("final_concurrence", 3)):
            if not abs(report.get(key, np.nan) - table[-1, col]) <= TOL:
                problems.append(f"report {key} {report.get(key)} != CSV {table[-1, col]}")
        return table, problems

    def check_table(self, label: str, cfg, table: np.ndarray) -> list[str]:
        raise NotImplementedError


class FeedbackPresets(PresetWorkload):
    preset = "figure4"
    quick_labels = ("figure4_local_k2", "figure4_interaction_k2")

    def check_table(self, label, cfg, table):
        problems = []
        rise = float(np.max(np.diff(table[:, 1])))
        if rise > V_SLACK:
            problems.append(f"V rises by {rise:.3e} between samples")
        if abs(table[-1, 0] - cfg.integrator.t_max) > 1e-9:
            problems.append(f"last sample at t={table[-1, 0]}")
        v_ref, c_ref = reference.FINAL[label]
        for name, got, want in (("final V", table[-1, 1], v_ref), ("final C", table[-1, 3], c_ref)):
            if not abs(got - want) <= TOL:
                problems.append(f"{name} {got!r} differs from reference {want!r}")
        return problems


class ConstantFieldPresets(PresetWorkload):
    preset = "figure1"
    quick_labels = ("figure1_B0.4",)

    def __init__(self, bs, work_dir: Path, seed: int, quick: bool):
        super().__init__(bs, work_dir, seed, quick)
        self._exact: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def check_table(self, label, cfg, table):
        t = table[:, 0]
        if label not in self._exact or len(self._exact[label][0]) != len(t):
            psi = oracle.switched_states(cfg.model.J, cfg.model.eta, cfg.law.t0, t)
            v = oracle.distance(psi, oracle.drifting_target(cfg.model.J, t))
            self._exact[label] = (oracle.concurrence(psi), v)
        c_exact, v_exact = self._exact[label]
        problems = []
        for name, got, want in (("concurrence", table[:, 3], c_exact), ("V", table[:, 1], v_exact)):
            miss = float(np.max(np.abs(got - want)))
            if not miss <= TOL:
                problems.append(f"{name} misses the exact propagation by {miss:.3e}")
        return problems


class SwitchSweep:
    """A ``law.t0`` sweep of ``figure1_B0.4`` with seeded switch times."""

    def __init__(self, bs, work_dir: Path, seed: int, quick: bool):
        rng = random.Random(seed)
        self.values = [rng.uniform(*SWITCH_RANGE) for _ in range(4 if quick else 16)]
        self.out = work_dir / "sweep.csv"
        text = _SWEEP_CONFIG.format(
            seed=seed,
            values=", ".join("%.17g" % v for v in self.values),
            parallel=SWEEP_PARALLEL,
            out=self.out,
        )
        ex = bs.experiments
        self.bs = bs
        self.cfg = ex.sweep_from_mapping(ex.parse_config_text(text))
        self.digest: str | None = None
        self._exact: tuple[np.ndarray, np.ndarray] | None = None

    def serial(self) -> "SwitchSweep":
        """The same sweep run in-process, row after row. Its CSV must match
        the parallel one byte for byte."""
        other = copy.copy(self)
        other.cfg = dataclasses.replace(self.cfg, parallel=1)
        return other

    def run_pass(self) -> PassResult:
        self.out.unlink(missing_ok=True)
        start = perf_counter()
        self.bs.experiments.run_sweep(self.cfg)
        end = perf_counter()

        base = self.cfg.base
        n_samples = int(round(base.integrator.t_max / base.integrator.sample_every)) + 1
        result = PassResult(start, end, [(start, end)], len(self.values), 0, 0)
        try:
            data = self.out.read_bytes()
            rows = list(csv.DictReader(io.StringIO(data.decode())))
        except (OSError, ValueError) as exc:
            data, rows = b"", [{"error": f"unreadable sweep CSV: {exc}"}]
        if len(rows) != len(self.values):
            result.failed = len(self.values)
            result.problems.append(f"sweep CSV has {len(rows)} rows: {rows[:1]}")
            return result
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        c_exact, v_exact = self._oracle()
        for i, (row, value) in enumerate(zip(rows, self.values)):
            problems = []
            if digest != self.digest:
                problems.append("sweep CSV differs from the first pass")
            try:
                problems += self._check_row(row, value, c_exact[i], v_exact[i])
            except (KeyError, ValueError) as exc:
                problems.append(f"unreadable row {row}: {exc!r}")
            if problems:
                result.failed += 1
                result.problems.append(f"row t0={value:.6f}: " + "; ".join(problems))
            else:
                result.samples += n_samples
        return result

    @staticmethod
    def _check_row(row: dict, value: float, c_exact: float, v_exact: float) -> list[str]:
        if row["error"]:
            return [row["error"]]
        if float(row["value"]) != value:
            return [f"value {row['value']} != {value!r}"]
        problems = []
        for name, col, want in (("C", "final_concurrence", c_exact), ("V", "final_V", v_exact)):
            got = float(row[col])
            if not abs(got - want) <= TOL:
                problems.append(f"final {name} {got!r} differs from exact {want!r}")
        return problems

    def _oracle(self) -> tuple[np.ndarray, np.ndarray]:
        if self._exact is None:
            base = self.cfg.base
            t_end = np.array([base.integrator.t_max])
            target = oracle.drifting_target(base.model.J, t_end)
            c, v = [], []
            for t0 in self.values:
                psi = oracle.switched_states(base.model.J, base.model.eta, t0, t_end)
                c.append(oracle.concurrence(psi)[0])
                v.append(oracle.distance(psi, target)[0])
            self._exact = (np.array(c), np.array(v))
        return self._exact


WORKLOADS = {
    "feedback_presets": FeedbackPresets,
    "constant_field_presets": ConstantFieldPresets,
    "switch_sweep": SwitchSweep,
}
