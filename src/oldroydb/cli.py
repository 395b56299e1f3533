"""Command-line entry point.

Subcommands:

    simulate CONFIG.json          run a simulation; write the ledger (CSV)
                                  and initial/final snapshots
    norms FIELD [--hybrid | --r R] --s S
                                  print a JSON norm report for a snapshot
    verify SUITE [--seed N]       run a named property suite; exit 0/1
    bench-estimates NAME [...]    fitted estimate constants per resolution
    stability CONFIG.json --delta D
                                  twin-run stability report

All output is line-delimited JSON.  The environment variable
``OLDROYD_OUT_DIR`` overrides the output directory.  Exit codes: 0 success,
1 failed verification, 2 configuration or I/O error, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .fields import FieldError
from .grid import GridError
from .littlewood_paley import UnsupportedIndexError, besov_norm, build_partition, hybrid_norm
from .monitor import stability_experiment
from .snapshots import SnapshotError, read_field, write_field
from .solver import ConfigError, DivergenceError, SolverConfig, simulate
from .verification import ESTIMATE_NAMES, SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGED = 3


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, default=_json_default) + "\n")
    sys.stdout.flush()


def _out_dir(configured: str | None) -> Path:
    override = os.environ.get("OLDROYD_OUT_DIR")
    path = Path(override or configured or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(ok: bool, message: str) -> None:
    """Reject a bad command-line value as a configuration error (exit 2)."""
    if not ok:
        raise ConfigError(message)


def _diverged(exc) -> int:
    _emit({"event": "diverged", "step": exc.step_index, "t": exc.t, "field": exc.field})
    return EXIT_DIVERGED


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return SolverConfig.from_json(text)


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(config.out_dir)
    try:
        result = simulate(config)
    except DivergenceError as exc:
        exc.ledger.write_csv(out / "ledger.csv")
        return _diverged(exc)
    ledger_path = out / "ledger.csv"
    result.ledger.write_csv(ledger_path)
    write_field(out / "initial_u.field", result.initial.u)
    write_field(out / "initial_tau.field", result.initial.tau)
    write_field(out / "final_u.field", result.final.u)
    write_field(out / "final_tau.field", result.final.tau)
    _emit({
        "event": "simulated",
        "t_end": result.final.t,
        "steps": config.n_steps,
        "rows": len(result.ledger.rows),
        "ledger": str(ledger_path),
        "E_final": result.ledger.rows[-1]["E"],
    })
    return EXIT_OK


def cmd_norms(args) -> int:
    _require(np.isfinite(args.s), f"--s must be finite, got {args.s}")
    try:
        r = np.inf if args.r in ("inf", "oo") else float(args.r)
    except ValueError:
        raise ConfigError(f"--r must be 1, 2 or inf, got {args.r!r}") from None
    field = read_field(args.field)
    part = build_partition(field.grid)
    # every norm here has p = 2; the hybrid norm sums its high part in l1
    rec = {"norm_kind": "hybrid" if args.hybrid else "besov", "s": args.s, "p": 2.0,
           "r": 1.0 if args.hybrid else r, "q_range": [int(part.q_min), int(part.q_max)]}
    # a large |s| overflows the block weights 2^{qs}; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if args.hybrid:
            total, low, high = hybrid_norm(field, args.s)
            rec.update({"value": total, "low_part": low, "high_part": high})
        else:
            rec["value"] = besov_norm(field, args.s, r)
    _require(np.isfinite(rec["value"]),
             f"--s {args.s} overflows the block weights 2^(qs): the norm is not finite")
    _emit(rec)
    return EXIT_OK


def cmd_verify(args) -> int:
    _require(args.seed >= 0, f"--seed must be nonnegative, got {args.seed}")
    report = run_suite(args.suite, seed=args.seed)
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_bench_estimates(args) -> int:
    _require(args.seed >= 0, f"--seed must be nonnegative, got {args.seed}")
    # only the values given go on: the defaults are estimate_bench's
    options = {"names": ESTIMATE_NAMES if args.estimate == "all" else (args.estimate,)}
    if args.samples is not None:
        _require(args.samples >= 1, f"--samples must be at least 1, got {args.samples}")
        options["samples"] = args.samples
    if args.n is not None:
        _require(len(set(args.n)) >= 2,
                 f"--n needs at least two distinct resolutions, got {args.n}")
        options["n_list"] = tuple(args.n)
    report = run_suite("estimates", args.seed, **options)
    out = _out_dir(None)
    path = out / "estimates.json"
    path.write_text(json.dumps(report, indent=2, default=_json_default),
                    encoding="utf-8")
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_stability(args) -> int:
    config = _load_config(args.config)
    try:
        report = stability_experiment(config, args.delta)
    except DivergenceError as exc:
        return _diverged(exc)
    out = _out_dir(config.out_dir)
    (out / "stability.json").write_text(
        json.dumps(report, indent=2, default=_json_default), encoding="utf-8")
    _emit(report)
    return EXIT_OK


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write ``--s -1e-3`` as ``--s=-1e-3`` (and so for ``--delta``): argparse
    takes a negative number in exponent form for an option name."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--s", "--delta") and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oldroydb",
        description="Oldroyd-B torus simulator with Littlewood-Paley diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("config", help="path to a JSON configuration")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("norms", help="norm report for a field snapshot")
    p.add_argument("field", help="path to a field-v1 snapshot")
    p.add_argument("--s", type=float, required=True, help="regularity index")
    p.add_argument("--r", default="1", help="summation exponent: 1, 2 or inf")
    p.add_argument("--hybrid", action="store_true",
                   help="hybrid low/high norm instead of a Besov norm")
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench-estimates", help="fit estimate constants per resolution")
    p.add_argument("estimate", choices=ESTIMATE_NAMES + ("all",))
    p.add_argument("--samples", type=int,
                   help="samples per estimate (default: estimate_bench's)")
    p.add_argument("--n", type=int, action="append",
                   help="resolution; repeat for several (default: estimate_bench's)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench_estimates)

    p = sub.add_parser("stability", help="twin-run stability experiment")
    p.add_argument("config", help="path to a JSON configuration")
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(fn=cmd_stability)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (ConfigError, SnapshotError, GridError, FieldError,
            UnsupportedIndexError, OSError) as exc:
        _emit({"event": "error", "message": str(exc)})
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
