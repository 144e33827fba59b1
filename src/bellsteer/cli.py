"""Command-line entry point.

Subcommands: ``run`` (one scenario config), ``sweep`` (one-axis parameter
sweep), ``preset`` (named reproduction runs), ``validate`` (parse a config and
report problems). Exit codes: 0 success, 2 config/usage error, 3 integrator
abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .dynamics import IntegrationError
from .experiments import (
    PRESET_NAMES,
    ConfigError,
    is_sweep_mapping,
    load_scenario,
    load_sweep,
    read_config,
    run_preset,
    run_scenario,
    run_sweep,
    scenario_from_mapping,
    sweep_from_mapping,
    sweep_table,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsteer",
        description="Two-qubit entanglement steering: Lyapunov feedback and "
        "timed constant-field schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario config file")
    p_run.add_argument("config", help="path to a flat key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="recorded in the report")

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over one parameter axis")
    p_sweep.add_argument("config", help="config file with sweep.* keys")
    p_sweep.add_argument("--seed", type=int, default=None, help="recorded in the report")

    p_preset = sub.add_parser("preset", help="run a named reproduction preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument(
        "--out", default=".", help="directory for <label>.csv and <label>.json outputs"
    )
    p_preset.add_argument("--seed", type=int, default=None, help="recorded in the report")

    p_val = sub.add_parser("validate", help="check a config file without running it")
    p_val.add_argument("config")
    return parser


def _fmt_opt(x: float | None) -> str:
    return "-" if x is None else f"{x:.6g}"


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _, report = run_scenario(cfg)
    print(
        f"samples={report['samples']} t_final={report['t_final']:.6g} "
        f"final_V={report['final_V']:.6g} "
        f"final_concurrence={report['final_concurrence']:.6g} "
        f"stalled={report['stalled']}"
    )
    for key in ("trajectory_csv", "report_json"):
        path = getattr(cfg.outputs, key)
        if path:
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_sweep(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, base=dataclasses.replace(cfg.base, seed=args.seed)
        )
    # stdout is the CSV that sweep.out holds, so the note goes to stderr.
    sys.stdout.write(sweep_table(run_sweep(cfg)))
    if cfg.out:
        print(f"wrote {cfg.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    results = run_preset(args.name, args.out, args.seed)
    for label, _, report in results:
        print(
            f"{label}: final_V={report['final_V']:.6g} "
            f"final_concurrence={report['final_concurrence']:.6g} "
            f"t_first={_fmt_opt(report['peak']['t_first'])}"
        )
    print(f"wrote {2 * len(results)} files to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    mapping = read_config(args.config)
    if is_sweep_mapping(mapping):
        sweep_from_mapping(mapping)
        print(f"OK: {args.config} is a valid sweep config")
    else:
        scenario_from_mapping(mapping)
        print(f"OK: {args.config} is a valid scenario config")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "preset": _cmd_preset,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
