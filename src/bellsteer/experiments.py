"""Scenario runner: config files, named presets, sweeps, CSV/JSON output.

Config files are flat ``key = value`` text (``#`` comments). States are named
literals (``|00>``, ``|++>``, ``PhiPlus``, ...) or explicit amplitudes
``basis:XProduct; amps = (re,im),(re,im),(re,im),(re,im)``. Scenarios
integrate in XProduct coordinates; configured states are stored canonically in
ZProduct coordinates and converted when the run is assembled.

Outputs: a trajectory CSV with the exact header
``t,V,f,concurrence,fidelity,p_S,purity`` (each float as ``'%.16e'``, which
reads back bit for bit) and a JSON report (final values, rate fit, peak
analysis, drive-strength ratio).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import re
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .control import ControlLaw, Geometric, Lyapunov
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate,
    propagate_exact,
)
from .metrics import V_FIT_FLOOR, convergence_report, peak_report
from .model import (
    BASES,
    BellName,
    HamiltonianPair,
    ModelParams,
    Paradigm,
    X_PRODUCT,
    Z_PRODUCT,
    bell_state,
    hamiltonians,
)

CSV_HEADER = "t,V,f,concurrence,fidelity,p_S,purity"
PRESET_NAMES = ("figure1", "figure2", "figure3", "figure4")


class ConfigError(ValueError):
    """A config file or mapping that cannot be turned into a valid scenario."""


def _state_literals() -> dict[str, np.ndarray]:
    lits: dict[str, np.ndarray] = {}
    for i, name in enumerate(("|00>", "|01>", "|10>", "|11>")):
        v = np.zeros(4, dtype=complex)
        v[i] = 1.0
        lits[name] = v
    hh = X_PRODUCT.transform.conj().T  # columns are |++>, |+->, |-+>, |-->
    for i, name in enumerate(("|++>", "|+->", "|-+>", "|-->")):
        lits[name] = hh[:, i].copy()
    for bn in BellName:
        lits[bn.value] = bell_state(bn, Z_PRODUCT)
    return lits


STATE_LITERALS = _state_literals()


def _finite(raw: str) -> float:
    """float(raw), rejecting nan and inf with a ValueError."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


_AMP_RE = re.compile(r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)")


def parse_state(text: str, field: str) -> np.ndarray:
    """Parse a state value into a unit vector in ZProduct coordinates."""
    text = text.strip()
    if text in STATE_LITERALS:
        return STATE_LITERALS[text].copy()
    if text.startswith("basis:"):
        head, _, amps_part = text.partition(";")
        tag = head[len("basis:"):].strip()
        if tag not in BASES:
            raise ConfigError(
                f"{field}: unknown basis tag {tag!r} (choose from {sorted(BASES)})"
            )
        amps_part = amps_part.strip()
        if not amps_part.startswith("amps"):
            raise ConfigError(f"{field}: expected 'basis:TAG; amps = (re,im),...'")
        _, _, amps_text = amps_part.partition("=")
        pairs = _AMP_RE.findall(amps_text)
        dim = BASES[tag].transform.shape[0]
        if len(pairs) != dim:
            raise ConfigError(
                f"{field}: expected {dim} amplitude pairs, found {len(pairs)}"
            )
        try:
            v = np.array([complex(_finite(a), _finite(b)) for a, b in pairs])
        except ValueError as exc:
            raise ConfigError(f"{field}: bad amplitude: {exc}") from exc
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-9:
            raise ConfigError(f"{field}: state is not normalized (norm {nrm:.12g})")
        return BASES[tag].transform.conj().T @ (v / nrm)
    raise ConfigError(
        f"{field}: unknown state {text!r}; use a literal "
        f"({', '.join(sorted(STATE_LITERALS))}) or 'basis:TAG; amps = (re,im),...'"
    )


@dataclass(frozen=True)
class OutputPaths:
    trajectory_csv: str | None = None
    report_json: str | None = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One run, open- or closed-loop. States are unit vectors in ZProduct coordinates."""

    model: ModelParams
    paradigm: Paradigm
    law: ControlLaw
    initial_state: np.ndarray
    target_state: np.ndarray
    integrator: IntegratorConfig
    outputs: OutputPaths = OutputPaths()
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Rerun ``base`` once per value of one numeric parameter.

    ``parallel`` (``sweep.parallel``) has no effect: rows run in the calling
    process. It is still read (>= 1) so that configs that set it keep loading.
    """

    base: ScenarioConfig
    axis: str
    values: tuple[float, ...]
    parallel: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("sweep.values must not be empty")
        if self.parallel < 1:
            raise ConfigError(f"sweep.parallel must be >= 1, got {self.parallel}")
        _axis_target(self.base, self.axis)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into an ordered mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _finite_list(raw: str) -> tuple[float, ...]:
    """A comma list of finite numbers; empty items are skipped."""
    return tuple(_finite(v) for v in raw.split(",") if v.strip())


#: The reader of each scalar field type, and the error text for a value it rejects.
_READERS = {
    int: (int, "not an integer"),
    float: (_finite, "not a finite number"),
    str: (str, ""),
    tuple[float, ...]: (_finite_list, "not a list of finite numbers"),
}


def _parse_value(hint, raw: str, key: str):
    """Read the config value ``raw`` of ``key`` as the field type ``hint``."""
    if hint is np.ndarray:
        return parse_state(raw, key)
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(raw)
        except ValueError:
            raise ConfigError(
                f"{key}: unknown value {raw!r} (choose from {[m.value for m in hint]})"
            ) from None
    read, what = _READERS[hint]
    try:
        return read(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {what}: {raw!r}") from exc


def _pop_dataclass(d: dict[str, str], prefix: str, cls: type, **given):
    """Build ``cls`` from the ``<prefix><field>`` keys of ``d``, popping them.

    The dataclass is the schema. Fields in ``given`` are passed as they are;
    every other field is read by its type alone (_parse_value), where a
    dataclass field is the section ``<field>.`` and a union of dataclasses is
    picked by class name in ``<field>.type``. A field without a default is
    required, an absent one keeps its default, and a field whose type admits
    None also accepts ``none``.
    """
    hints = typing.get_type_hints(cls)
    kwargs = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        key, hint = prefix + f.name, hints[f.name]
        if dataclasses.is_dataclass(hint):
            kwargs[f.name] = _pop_dataclass(d, f"{key}.", hint)
            continue
        args = typing.get_args(hint)
        nullable = type(None) in args
        options = [a for a in args if a is not type(None)] if nullable else [hint]
        pick = f"{key}.type" if len(options) > 1 else key
        if pick not in d:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"missing required key {pick!r}")
            continue
        raw = d.pop(pick)
        if nullable and raw.lower() == "none":
            kwargs[f.name] = None
        elif len(options) == 1:
            kwargs[f.name] = _parse_value(options[0], raw, key)
        else:
            classes = {c.__name__: c for c in options}
            if raw not in classes:
                raise ConfigError(
                    f"{pick}: unknown value {raw!r} "
                    f"(choose from {', '.join([*classes, 'None'])})"
                )
            kwargs[f.name] = _pop_dataclass(d, f"{key}.", classes[raw])
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix.rstrip('.')}: {exc}") from exc


_SWEEP = "sweep."


def scenario_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from a flat key/value mapping.

    Unknown keys are an error. Keys under ``sweep.`` are ignored here so the
    same mapping can also carry a sweep definition.
    """
    d = {k: v for k, v in mapping.items() if not k.startswith(_SWEEP)}
    cfg = _pop_dataclass(d, "", ScenarioConfig)
    if d:
        raise ConfigError(f"unknown config keys: {sorted(d)}")
    return cfg


def sweep_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    base = scenario_from_mapping(mapping)
    d = {k: v for k, v in mapping.items() if k.startswith(_SWEEP)}
    cfg = _pop_dataclass(d, _SWEEP, SweepConfig, base=base)
    if d:
        raise ConfigError(f"unknown config keys: {sorted(d)}")
    return cfg


def read_config(path: str | Path) -> dict[str, str]:
    """Parse the config file at ``path``; a file that is not UTF-8 text is a
    ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


def load_scenario(path: str | Path) -> ScenarioConfig:
    return scenario_from_mapping(read_config(path))


def load_sweep(path: str | Path) -> SweepConfig:
    return sweep_from_mapping(read_config(path))


def is_sweep_mapping(mapping: dict[str, str]) -> bool:
    return any(k.startswith(_SWEEP) for k in mapping)


# The trajectory CSV's text of a float x is '%.16e' % x, written for a whole
# table at once. Its 17 significant digits are the correctly rounded
# N = round(|x| 10^(16-E)), E = floor(log10|x|), that Python's %-formatting
# takes from Gay's dtoa (1990); here they come from Dekker's exact product of
# |x| and a double-double 10^(16-E) (Numer. Math. 18, 224 (1971)), both of
# whose parts are quotients of Python integers. They are laid out in fixed
# 32-byte cells whose NUL pads are then deleted:
#   head (8 bytes)    sign, the first digit and the point;
#   digits (16)       the other 16 digits;
#   tail (8)          'e+XX' or 'e-XXX', then at byte 6 ',' or, after the
#                     last column, the newline.
# A value this cannot decide, namely zero, nan, inf, |x| outside
# [1e-250, 1e250] and N within _TIE of a rounding tie, is formatted by
# '%.16e' itself.
_E_LIM = 250
_TIE = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo into two halves of 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table() -> np.ndarray:
    """Rows hi, hi's two Dekker halves and lo for 10^p, p = 16 - E, in column
    E + _E_LIM + 2 for |E| <= _E_LIM + 2. With 10^p = num / den in integers,
    hi = num / den and lo = (num b - a den) / (den b) for a / b = hi: Python
    rounds a quotient of integers correctly, so hi is 10^p rounded to nearest,
    lo its remainder rounded to nearest, and hi + lo is 10^p to half an ulp of
    lo."""
    hi, lo = [], []
    for p in range(16 + _E_LIM + 2, 16 - _E_LIM - 3, -1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    return np.stack([hi, *_split(hi), np.array(lo)])


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes, NUL-padded, as a little-endian word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The powers of ten and the cells' pieces as little-endian words: heads
    '-d.' or 'd.' in row 10 sign + d, the four digits of q = 0..9999 in the
    low half of row q, and tails b'e%+03d' % E with ',' or, in the last
    column, a newline at byte 6, in row 2 (E + _E_LIM + 2) + last. Built at
    the first CSV write: a process that writes none, such as a sweep, never
    holds them."""
    heads = _words(b"%s%d." % (b"-"[:sign], d) for sign in (0, 1) for d in range(10))
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy() + ord("0")
    tails = _words((b"e%+03d" % e).ljust(6, b"\0") + end
                   for e in range(-_E_LIM - 2, _E_LIM + 3) for end in (b",", b"\n"))
    return _pow10_table(), heads, digits.view("<u4").ravel().astype("<u8"), tails


def _significand(a: np.ndarray, e: np.ndarray, p10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a 10^(16 - e)) as int64, and the fraction it drops, with p10 from
    _pow10_table."""
    hi, b1, b2, lo = np.take(p10, e + _E_LIM + 2, axis=1)
    ph = a * hi
    a1, a2 = _split(a)
    frac = ((a1 * b1 - ph) + a1 * b2 + a2 * b1) + a2 * b2 + a * lo
    whole = np.floor(frac)
    return ph.astype(np.int64) + whole.astype(np.int64), frac - whole


def _csv_rows(table: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 table: '%.16e' % x per value, ',' between
    values and a newline after each row."""
    p10, heads, digit_words, tails = _format_tables()
    rows, cols = table.shape
    x = table.ravel()
    a = abs(x)
    ok = (a >= 10.0**-_E_LIM) & (a <= 10.0**_E_LIM)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _significand(a, e, p10)
    # log10 can miss E by one next to a power of ten
    shift = (n >= 10**17).astype(np.int64) - (n < 10**16)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        n[moved], frac[moved] = _significand(a[moved], e[moved], p10)
    ok &= (n >= 10**16) & (n < 10**17) & (abs(frac - 0.5) >= _TIE)
    n += frac >= 0.5
    # a significand that rounds up to 10^17 is 10^16 at the next exponent
    carry = n == 10**17
    n[carry] //= 10
    e[carry] += 1
    n[~ok], e[~ok] = 10**16, 0
    first, rest = np.divmod(n, 10**16)
    cells = np.empty((x.size, 4), "<u8")
    cells[:, 0] = heads[np.signbit(x) * 10 + first]
    for word, eight in ((1, rest // 10**8), (2, rest % 10**8)):
        high, low = np.divmod(eight, 10000)
        cells[:, word] = digit_words[high] | digit_words[low] << 32
    tail = (e + _E_LIM + 2).reshape(rows, cols) * 2
    tail[:, -1] += 1
    cells[:, 3] = tails[tail.ravel()]
    cells = cells.view(np.uint8).reshape(rows, cols, 32)
    for i in np.flatnonzero(~ok):
        text = b"%.16e" % x[i]
        cells[i // cols, i % cols, :-2] = 0  # all but the separator and its pad
        cells[i // cols, i % cols, : len(text)] = np.frombuffer(text, np.uint8)
    return cells.tobytes().translate(None, b"\0")


#: Rows formatted per pass. It bounds a long run's transient buffers, and at
#: 512 rows every temporary of a 7-column pass stays under glibc's 128 KiB
#: mmap threshold, so passes reuse heap memory: at 4,096 rows each 3,001-row
#: CSV took about 1,000 fresh page faults.
_CSV_BLOCK = 512


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write the columns of CSV_HEADER, one row per sample, each float as
    '%.16e' % x, with '\\n' line ends on every platform."""
    columns = [getattr(traj, name) for name in CSV_HEADER.split(",")]
    table = np.column_stack(columns).astype(np.float64, copy=False)
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for start in range(0, len(table), _CSV_BLOCK):
            fh.write(_csv_rows(table[start : start + _CSV_BLOCK]))


def _default_fit_window(traj: Trajectory) -> tuple[float, float] | None:
    """Middle half of the span where V is above the noise floor."""
    mask = traj.V > V_FIT_FLOOR
    if int(mask.sum()) < 20:
        return None
    ts = traj.t[mask]
    lo, hi = float(ts[0]), float(ts[-1])
    return lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)


def build_report(
    traj: Trajectory, cfg: ScenarioConfig, h: HamiltonianPair, label: str | None = None
) -> dict:
    """The JSON report of a finished run of ``cfg`` under the Hamiltonians ``h``."""
    # Undefined (null in the JSON) when the drift is zero, e.g. InteractionControl at eta = 0.
    h0_norm, h1_norm = np.linalg.norm(h.h0), np.linalg.norm(h.h1)
    drive_ratio = float(np.max(np.abs(traj.f)) * h1_norm / h0_norm) if h0_norm else None
    peak = peak_report(traj)
    stats = traj.integrator_stats

    convergence: dict | None = None
    if isinstance(cfg.law, Lyapunov):
        window = _default_fit_window(traj)
        if window is not None:
            try:
                rep = convergence_report(traj, window)
                convergence = {
                    "rate": rep.rate,
                    "fit_quality": rep.fit_quality,
                    "window": [window[0], window[1]],
                }
            except ValueError as exc:
                convergence = {"error": str(exc)}
        else:
            convergence = {"error": "too few samples above the V noise floor"}

    return {
        "label": label,
        "seed": cfg.seed,
        "model": dataclasses.asdict(cfg.model),
        "paradigm": cfg.paradigm.value,
        "law": None if cfg.law is None else {
            "type": type(cfg.law).__name__, **dataclasses.asdict(cfg.law)
        },
        "integrator": dataclasses.asdict(cfg.integrator),
        "samples": len(traj),
        "t_final": float(traj.t[-1]),
        "final_V": float(traj.V[-1]),
        "final_concurrence": float(traj.concurrence[-1]),
        "final_fidelity": float(traj.fidelity[-1]),
        "stalled": traj.stalled,
        "integrator_stats": None if stats is None else dataclasses.asdict(stats),
        "max_drive_ratio": drive_ratio,
        "peak": {
            "t_first": peak.t_first,
            "c_max": peak.c_max,
            "fluctuation_amplitude": peak.fluctuation_amplitude,
        },
        "convergence": convergence,
    }


def _write_report_json(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def run_scenario(
    cfg: ScenarioConfig, label: str | None = None
) -> tuple[Trajectory, dict]:
    """Integrate one scenario and write any configured outputs.

    Feedback runs go through the DP5(4) integrator; open-loop runs (geometric
    or no law) are propagated exactly. On an abort the diagnostic is still
    written to the report path (when configured) before the IntegrationError
    propagates.
    """
    h = hamiltonians(cfg.model, cfg.paradigm)
    psi0 = X_PRODUCT.vector_from_z(cfg.initial_state)
    psi_d0 = X_PRODUCT.vector_from_z(cfg.target_state)
    run = integrate if isinstance(cfg.law, Lyapunov) else propagate_exact
    try:
        traj = run(h, cfg.law, psi0, psi_d0, cfg.integrator)
    except IntegrationError as exc:
        if cfg.outputs.report_json:
            _write_report_json(
                {"label": label, "error": str(exc), "aborted_at": exc.t},
                cfg.outputs.report_json,
            )
        raise
    report = build_report(traj, cfg, h, label)
    if cfg.outputs.trajectory_csv:
        write_trajectory_csv(traj, cfg.outputs.trajectory_csv)
    if cfg.outputs.report_json:
        _write_report_json(report, cfg.outputs.report_json)
    return traj, report


def _axis_target(cfg: ScenarioConfig, axis: str) -> tuple[str, str]:
    parts = axis.split(".")
    if len(parts) != 2 or parts[0] not in ("model", "law", "integrator"):
        raise ConfigError(
            f"sweep.axis: {axis!r} is not of the form model.*, law.* or integrator.*"
        )
    section, fieldname = parts
    obj = getattr(cfg, section)
    if obj is None:
        raise ConfigError(f"sweep.axis: {axis!r} requires a control law, but law is None")
    names = {f.name for f in dataclasses.fields(obj)}
    if fieldname not in names:
        raise ConfigError(
            f"sweep.axis: {type(obj).__name__} has no field {fieldname!r} "
            f"(choose from {sorted(names)})"
        )
    current = getattr(obj, fieldname)
    if current is not None and not isinstance(current, (int, float)):
        raise ConfigError(f"sweep.axis: field {axis!r} is not numeric")
    return section, fieldname


def apply_axis(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """Return a copy of ``cfg`` with the axis field replaced by ``value``."""
    section, fieldname = _axis_target(cfg, axis)
    sub = dataclasses.replace(getattr(cfg, section), **{fieldname: value})
    return dataclasses.replace(cfg, **{section: sub})


_SWEEP_COLUMNS = ("value", "final_concurrence", "final_V", "t_first", "rate", "error")


def _sweep_row(base: ScenarioConfig, axis: str, value: float) -> dict:
    row = dict.fromkeys(_SWEEP_COLUMNS)
    row["value"] = value
    try:
        cfg = apply_axis(base, axis, value)
        cfg = dataclasses.replace(cfg, outputs=OutputPaths())
        _, report = run_scenario(cfg)
    except Exception as exc:  # noqa: BLE001 - row isolation is the contract
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row["final_concurrence"] = report["final_concurrence"]
    row["final_V"] = report["final_V"]
    row["t_first"] = report["peak"]["t_first"]
    conv = report["convergence"] or {}
    row["rate"] = conv.get("rate")
    return row


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """One row per value, run in the calling process in input order.

    ``cfg.parallel`` has no effect. A failed row carries its error message;
    the sweep continues.
    """
    rows = [_sweep_row(cfg.base, cfg.axis, v) for v in cfg.values]
    if cfg.out:
        write_sweep_csv(rows, cfg.out)
    return rows


def sweep_table(rows: list[dict]) -> str:
    """The sweep CSV: a header of the column names, then one line per row,
    numbers at 17 significant digits, empty cells for None, and quotes
    around any cell that needs them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        cells = [row[col] for col in _SWEEP_COLUMNS]
        writer.writerow(
            ["" if v is None else v if isinstance(v, str) else "%.17g" % v for v in cells]
        )
    return buf.getvalue()


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(sweep_table(rows))


def _scenario(
    paradigm: Paradigm, eta: float, law: ControlLaw, initial: str, t_max: float
) -> ScenarioConfig:
    """A preset run at J = 1 from the state literal ``initial`` towards PhiPlus."""
    return ScenarioConfig(
        model=ModelParams(J=1.0, eta=eta),
        paradigm=paradigm,
        law=law,
        initial_state=STATE_LITERALS[initial].copy(),
        target_state=STATE_LITERALS["PhiPlus"].copy(),
        integrator=IntegratorConfig(t_max=t_max),
    )


def preset_scenarios(name: str) -> list[tuple[str, ScenarioConfig]]:
    """Named reproduction runs. figure1: constant-field concurrence-vs-time
    curves over the field strengths B = 0.1, 0.2, 0.4 (the field stays on for
    the whole run, so every sample is a candidate switch-off time). figure2 /
    figure3: Lyapunov feedback at kappa = 0.5, 1, 2 under local / interaction
    control. figure4 rebuilds both Lyapunov families for concurrence-vs-time
    comparison."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")
    local, interaction = Paradigm.LOCAL_CONTROL, Paradigm.INTERACTION_CONTROL
    if name == "figure1":
        runs = [
            (f"B{b:g}", _scenario(local, b, Geometric(t0=t_max), "|00>", t_max))
            for b, t_max in ((0.1, 200.0), (0.2, 60.0), (0.4, 20.0))
        ]
    else:
        paradigms = {
            "figure2": {"": local},
            "figure3": {"": interaction},
            "figure4": {"local_": local, "interaction_": interaction},
        }[name]
        runs = [
            (f"{tag}k{k:g}", _scenario(para, 0.1, Lyapunov(kappa=k), "|++>", 300.0))
            for tag, para in paradigms.items()
            for k in (0.5, 1.0, 2.0)
        ]
    return [(f"{name}_{label}", cfg) for label, cfg in runs]


def run_preset(
    name: str, out_dir: str | Path | None = None, seed: int | None = None
) -> list[tuple[str, Trajectory, dict]]:
    """Run every scenario of a preset; with ``out_dir``, write
    ``<label>.csv`` and ``<label>.json`` there."""
    results = []
    for label, cfg in preset_scenarios(name):
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            cfg = dataclasses.replace(
                cfg,
                outputs=OutputPaths(
                    trajectory_csv=str(out / f"{label}.csv"),
                    report_json=str(out / f"{label}.json"),
                ),
            )
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        traj, report = run_scenario(cfg, label)
        results.append((label, traj, report))
    return results
