"""Command line interface.

Exit codes: 0 certified success, 2 uncertified completion, 1 errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys as _sys

import numpy as np

from .condition import condition_report, kappa_subtuple_max
from .covering import DEFAULT_MAX_ITERATIONS
from .errors import ContractViolation, ParseError
from .grid import GridSpec, grid_count, grid_stream
from .pipeline import (RunOptions, homology_algorithm, parse_system,
                       serialize_result)
from .polysys import scaled_homogenization


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sah",
        description="Homology of basic semialgebraic sets via condition numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="run the full pipeline")
    comp.add_argument("--input", required=True)
    comp.add_argument("--mode", choices=["certified", "fixed"],
                      default="certified")
    comp.add_argument("--r", type=float, default=None)
    comp.add_argument("--epsilon", type=float, default=None)
    comp.add_argument("--max-dim", type=int, default=None)
    comp.add_argument("--max-iterations", type=int, default=None,
                      help="certified mode: passes at r = 1/2, 1/4, ...; "
                      f"at least 1 (default {DEFAULT_MAX_ITERATIONS})")
    comp.add_argument("--output", default=None)
    comp.add_argument("--timing", action="store_true",
                      help="include wall time in the output document")

    cond = sub.add_parser("condition", help="condition report at a point")
    cond.add_argument("--input", required=True)
    cond.add_argument("--point", required=True,
                      help="comma-separated homogeneous coordinates x0,...,xn")

    grid = sub.add_parser("grid", help="inspect the sphere grid")
    grid.add_argument("--n", type=int, required=True)
    grid.add_argument("--r", type=float, required=True)
    grid.add_argument("--count-only", action="store_true")
    return parser


def _cmd_compute(args) -> int:
    system = parse_system(args.input)
    opts = RunOptions(mode=args.mode, r_override=args.r,
                      epsilon_override=args.epsilon, max_dim=args.max_dim,
                      max_iterations=args.max_iterations)
    result = homology_algorithm(system, opts)
    text = serialize_result(result, include_timing=args.timing)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return 0 if result.certified else 2


def _cmd_condition(args) -> int:
    system = parse_system(args.input)
    x = np.array([float(v) for v in args.point.split(",")])
    if len(x) != system.n + 1:
        raise ContractViolation(
            f"point needs {system.n + 1} homogeneous coordinates")
    # scaling by the largest |x_i| first keeps the norm from overflowing
    scale = np.abs(x).max()
    if not 0.0 < scale < math.inf:
        raise ContractViolation(f"point {args.point} must have finite "
                                "coordinates, not all zero")
    x = x / scale
    x = x / np.linalg.norm(x)
    hsys = scaled_homogenization(system)
    report = condition_report(hsys.F, x,
                              max_degree=hsys.pattern.max_degree)
    k_sub, sub = kappa_subtuple_max(hsys, x)
    doc = {**dataclasses.asdict(report), "kappa_subtuple_max": k_sub,
           "subtuple": list(sub.indices)}
    doc = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
           for k, v in doc.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    spec = GridSpec(args.n, args.r)
    if args.count_only:
        print(grid_count(spec))
        return 0
    for pt in grid_stream(spec):
        print(" ".join(f"{v:.17g}" for v in pt))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "condition":
            return _cmd_condition(args)
        return _cmd_grid(args)
    except (ContractViolation, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
