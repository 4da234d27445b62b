"""Command-line interface.

Subcommands::

    nff sweep --config <file> --out <csv>
    nff boundaries --config <file> --out <csv>
    nff reproduce --figure fig4|fig5 --out <dir> [--traces <dir>] [--grid-ppd N]
    nff validate-trace <file>

``--grid-ppd`` sets the density of reproduce's sweep grids only (a scenario file
has ``grid_ppd``); boundary searches always scan 400 points per decade.

Exit codes: 0 success (``--help`` included), 1 validation error (bad
config, bad trace, bad arguments), 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    TraceFormatError,
    export_table,
    import_trace,
    load_scenario,
    reproduce_reference,
    run_boundaries,
    run_sweep,
    trace_error_curve,
)
from .metric import DEFAULT_GRID_PPD

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nff",
        description="Radial far-field convergence sweeps and boundary distances "
        "for dipole arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run an error sweep and write the curve CSV")
    sweep.add_argument("--config", required=True, help="scenario file")
    sweep.add_argument("--out", required=True, help="output curve CSV")

    bnd = sub.add_parser(
        "boundaries", help="evaluate the configured boundaries and write the table CSV"
    )
    bnd.add_argument("--config", required=True, help="scenario file")
    bnd.add_argument("--out", required=True, help="output boundary CSV")

    rep = sub.add_parser("reproduce", help="emit the reference data tables for a figure")
    rep.add_argument("--figure", required=True, choices=("fig4", "fig5"))
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument("--traces", default=None, help="directory of trace CSVs to include")
    rep.add_argument(
        "--grid-ppd", type=int, default=DEFAULT_GRID_PPD, help="sweep grid points per decade"
    )

    val = sub.add_parser("validate-trace", help="check a trace file and report its summary")
    val.add_argument("file", help="trace CSV")
    return parser


def _cmd_sweep(args) -> int:
    curve = run_sweep(load_scenario(args.config))
    export_table(curve, args.out)
    print(f"wrote {len(curve)} points to {args.out}")
    return EXIT_OK


def _cmd_boundaries(args) -> int:
    config = load_scenario(args.config)
    try:
        pairs = run_boundaries(config)
    except ConfigError as exc:  # a valid scenario with nothing to search
        raise ConfigError(f"{args.config}: {exc}") from exc
    export_table(pairs, args.out)
    print(f"wrote {len(pairs)} boundaries to {args.out}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    files = reproduce_reference(args.figure, args.out, args.traces, args.grid_ppd)
    for path in files:
        print(path)
    print(f"wrote {len(files)} files to {args.out}")
    return EXIT_OK


def _cmd_validate_trace(args) -> int:
    trace = import_trace(args.file)
    direction = trace.direction
    if direction is not None:
        trace_error_curve(trace)  # a trace that cannot be scored is not valid
    where = (
        f"theta={direction.theta_deg:g} deg, phi={direction.phi_deg:g} deg"
        if direction is not None
        else "unspecified (ff_f record without # direction)"
    )
    check = (
        f"{trace.eh_discrepancy:.3e}" if trace.eh_discrepancy is not None else "n/a"
    )
    print(
        f"{args.file}: {trace.r.size} rows, r = {trace.r[0]:g}..{trace.r[-1]:g}, "
        f"direction {where}, E/H residual {check}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    handlers = {
        "sweep": _cmd_sweep,
        "boundaries": _cmd_boundaries,
        "reproduce": _cmd_reproduce,
        "validate-trace": _cmd_validate_trace,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, TraceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
