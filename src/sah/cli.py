"""Command line interface.

Exit codes: 0 certified success, 2 uncertified completion, 1 errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys

from .covering import DEFAULT_MAX_ITERATIONS
from .grid import grid_chunks, grid_count, shell_order
from .pipeline import (RunOptions, condition_document, homology_algorithm,
                       parse_system, serialize_result)


def _build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        def error(self, message):  # to `main` (exit 1); 2 means uncertified
            raise ValueError(message)

    parser = Parser(
        prog="sah",
        description="Homology of basic semialgebraic sets via condition numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="run the full pipeline")
    comp.add_argument("--input", required=True)
    comp.add_argument("--mode", choices=["certified", "fixed"],
                      default="certified")
    comp.add_argument("--r", type=float, default=None)
    comp.add_argument("--epsilon", type=float, default=None)
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
                      epsilon_override=args.epsilon,
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
    point = [float(v) for v in args.point.split(",")]
    doc = condition_document(system, point)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_grid(args) -> int:
    m = shell_order(args.n, args.r)
    if args.count_only:
        print(grid_count(args.n, m))
        return 0
    for pts in grid_chunks(args.n, m):
        for pt in pts:
            print(" ".join(f"{v:.17g}" for v in pt))
    return 0


def main(argv=None) -> int:
    commands = {"compute": _cmd_compute, "condition": _cmd_condition,
                "grid": _cmd_grid}
    try:
        args = _build_parser().parse_args(argv)
        code = commands[args.command](args)
        _sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early; with stdout on devnull the flush at
        # exit cannot fail again (Python `signal` docs, SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's names the array it could not allocate; Python's is bare
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
