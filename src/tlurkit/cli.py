"""Command-line interface.

Subcommands: evaluate, scan, sweep, bisect, cv-evaluate, list-states,
list-criteria.  Output is JSON by default or flat CSV with ``--format csv``;
``--out FILE`` writes to a file instead of stdout.  Errors are emitted as
one-line JSON diagnostics on stderr; exit codes: 0 success, 2 invalid
input, 1 internal/numerical failure.

One parser serves every ``main`` call of a process: it is built at the first
call, not at import, and argparse starts each parse from a fresh namespace.
The ``--family`` and ``--criterion`` choices are read from ``FAMILIES`` and
``DV_CRITERIA`` when it is built; nothing in the package registers an entry
after import.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys

from .cvgauss import gaussian_from_spec
from .errors import (
    DimensionMismatchError,
    InvalidBoundError,
    NoCrossingError,
    NonMonotonicMarginError,
    ParameterRangeError,
    SpecParseError,
    TlurkitError,
    ValidationError,
)
from .observables import OBS_BUILDERS
from .scan import CV_CRITERIA, DV_CRITERIA, GridAxis, Plan, bisect_threshold, sweep
from .states import FAMILIES, state_from_spec

__all__ = ["main", "cli_main", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2) with plain text
        raise UsageError(message)


_INVALID_INPUT = (
    UsageError, SpecParseError, ParameterRangeError, DimensionMismatchError,
    ValidationError, InvalidBoundError, NoCrossingError, NonMonotonicMarginError,
    OSError,
)


def _read_spec(inline: str | None, path: str | None, what: str):
    """Parse a spec given inline or as a file; bare names pass through."""
    if inline and path:
        raise UsageError(f"give --{what} or --{what}-file, not both")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                inline = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecParseError(f"not UTF-8 text: {exc}", field=f"--{what}-file") from exc
    if inline is None:
        return None
    text = inline.strip()
    if not text.startswith("{"):
        return text  # builder-name shorthand
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal past 4300 digits
        raise SpecParseError(str(exc), field=f"--{what}") from exc


def _parse_fixes(pairs: list[str]) -> dict:
    fixed = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--fix expects name=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            fixed[key] = float(value)
        except ValueError:
            raise UsageError(f"--fix {key}: {value!r} is not a number")
    return fixed


def _parse_axis(text: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"--axis expects name:start:stop:step, got {text!r}")
    try:
        return GridAxis(parts[0], float(parts[1]), float(parts[2]), float(parts[3]))
    except ValueError:
        raise UsageError(f"--axis {parts[0]}: bounds must be numbers")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_text(report, fmt: str) -> str:
    if fmt == "csv":
        rep = report.to_dict()
        return _csv_text(["criterion", "lhs", "rhs", "margin", "detected"],
                         [[rep["criterion"], repr(rep["lhs"]), repr(rep["rhs"]),
                           repr(rep["margin"]), str(rep["detected"]).lower()]])
    return json.dumps(report.to_dict(), indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tlurkit",
                     description="variance-based entanglement detection toolkit")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p):
        p.add_argument("--state", default=None, help="inline state spec JSON")
        p.add_argument("--state-file", default=None)

    def add_obs(p):
        p.add_argument("--obs", default=None,
                       help="observable builder name or spec JSON")
        p.add_argument("--obs-file", default=None)

    p = sub.add_parser("evaluate", help="run one criterion on one state")
    add_state(p)
    add_obs(p)
    p.add_argument("--criterion", required=True, choices=sorted(DV_CRITERIA))

    p = sub.add_parser("scan", help="single-parameter scan over a family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--param", required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--criteria", required=True, help="comma-separated criteria")
    p.add_argument("--fix", action="append", default=[], metavar="NAME=VALUE")
    add_obs(p)

    p = sub.add_parser("sweep", help="multi-axis grid sweep over a family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--axis", action="append", default=[], required=False,
                   metavar="NAME:START:STOP:STEP")
    p.add_argument("--criteria", required=True, help="comma-separated criteria")
    p.add_argument("--fix", action="append", default=[], metavar="NAME=VALUE")
    add_obs(p)

    p = sub.add_parser("bisect", help="bisect a criterion threshold")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--param", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--criterion", required=True, choices=sorted(DV_CRITERIA))
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--fix", action="append", default=[], metavar="NAME=VALUE")
    add_obs(p)

    p = sub.add_parser("cv-evaluate", help="run a Gaussian quadrature criterion")
    add_state(p)
    p.add_argument("--a", type=float, default=1.0, help="combination parameter")
    p.add_argument("--criterion", required=True, choices=sorted(CV_CRITERIA))

    sub.add_parser("list-states", help="list state families")
    sub.add_parser("list-criteria", help="list criteria and observable builders")
    return parser


def _cmd_evaluate(args) -> str:
    spec = _read_spec(args.state, args.state_file, "state")
    if spec is None:
        raise UsageError("evaluate needs --state or --state-file")
    rho = state_from_spec(spec)
    plan = Plan([args.criterion], _read_spec(args.obs, args.obs_file, "obs"))
    return _report_text(plan.evaluate(rho)[0], args.format)


def _cmd_sweep(args) -> str:
    """A sweep over ``--axis`` axes, or, for ``scan``, over the one ``--param`` axis."""
    if args.command == "scan":
        axes = [GridAxis(args.param, args.min, args.max, args.step)]
    elif args.axis:
        axes = [_parse_axis(a) for a in args.axis]
    else:
        raise UsageError("sweep needs at least one --axis")
    result = sweep(args.family, axes, args.criteria.split(","),
                   obs_spec=_read_spec(args.obs, args.obs_file, "obs"),
                   fixed_params=_parse_fixes(args.fix))
    return result.to_csv() if args.format == "csv" else result.to_json()


def _cmd_bisect(args) -> str:
    threshold = bisect_threshold(
        args.family, args.param, args.lo, args.hi, args.criterion,
        obs_spec=_read_spec(args.obs, args.obs_file, "obs"),
        tol=args.tol, fixed_params=_parse_fixes(args.fix))
    payload = {
        "family": args.family, "param": args.param, "criterion": args.criterion,
        "lo": args.lo, "hi": args.hi, "tol": args.tol, "threshold": threshold,
    }
    if args.format == "csv":
        return _csv_text(list(payload),
                         [[args.family, args.param, args.criterion, repr(args.lo),
                           repr(args.hi), repr(args.tol), repr(threshold)]])
    return json.dumps(payload, indent=2) + "\n"


def _cmd_cv_evaluate(args) -> str:
    spec = _read_spec(args.state, args.state_file, "state")
    if spec is None:
        raise UsageError("cv-evaluate needs --state or --state-file")
    state = gaussian_from_spec(spec)
    report = CV_CRITERIA[args.criterion].evaluate(state, args.a)
    return _report_text(report, args.format)


def _cmd_list_states(args) -> str:
    rows = [{
        "family": fam.name,
        "dims": list(fam.dims),
        "params": {k: list(v) for k, v in fam.params.items()},
        "open": sorted(fam.open_params),
        "defaults": fam.defaults,
        "description": fam.description,
    } for fam in FAMILIES.values()]
    if args.format == "csv":
        return _csv_text(["family", "dim_a", "dim_b", "params", "description"],
                         [[r["family"], r["dims"][0], r["dims"][1],
                           ";".join(sorted(r["params"])), r["description"]] for r in rows])
    return json.dumps(rows, indent=2) + "\n"


def _cmd_list_criteria(args) -> str:
    rows = [{"criterion": e.name, "domain": "dv", "needs_obs": e.needs_obs,
             "description": e.description} for e in DV_CRITERIA.values()]
    rows += [{"criterion": e.name, "domain": "cv", "needs_obs": False,
              "description": e.description} for e in CV_CRITERIA.values()]
    if args.format == "csv":
        return _csv_text(["criterion", "domain", "needs_obs", "description"],
                         [[r["criterion"], r["domain"], str(r["needs_obs"]).lower(),
                           r["description"]] for r in rows])
    return json.dumps({"criteria": rows, "observable_builders": OBS_BUILDERS},
                      indent=2) + "\n"


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "scan": _cmd_sweep,
    "sweep": _cmd_sweep,
    "bisect": _cmd_bisect,
    "cv-evaluate": _cmd_cv_evaluate,
    "list-states": _cmd_list_states,
    "list-criteria": _cmd_list_criteria,
}


def _diagnostic(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__, "detail": str(exc)}),
          file=sys.stderr)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first call."""
    return build_parser()


def _parse_args(argv):
    """Parse ``argv``; an unknown flag ahead of the subcommand is named, not
    reported as the bad subcommand argparse takes its value for."""
    parser = _parser()
    try:
        return parser.parse_args(argv)
    except UsageError:
        head = itertools.takewhile(lambda t: t not in _COMMANDS,
                                   sys.argv[1:] if argv is None else argv)
        for flag in (t.split("=", 1)[0] for t in head if t.startswith("-")):
            if not any(known.startswith(flag) for known in parser._option_string_actions):
                raise UsageError(f"unrecognized global flag {flag}") from None
        raise


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        text = _COMMANDS[args.command](args)
        _emit(text, args.out)
    except _INVALID_INPUT as exc:
        _diagnostic("invalid-input", exc)
        return 2
    except TlurkitError as exc:
        _diagnostic("numerical-failure", exc)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        _diagnostic("internal", exc)
        return 1
    return 0


cli_main = main

if __name__ == "__main__":
    sys.exit(main())
