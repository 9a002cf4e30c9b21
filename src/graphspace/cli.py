"""Command-line surface: distances, kernels, Gram matrices, alignments,
sample means, and the verification suites.

Exit codes: 0 success, 1 usage error, malformed input or failed validation,
2 order guard exceeded, 3 unknown check suite.  Each subcommand accepts only
the flags it honours.  All output is deterministic for fixed inputs, flags,
and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

from .alignment import Alignment
from .geometry import sample_mean
from .graphs import PADDING_MODES, GraphFormatError, load_graph, padded_order, serialize_graph
from .kernels import (
    DELTA,
    DOT,
    MORPHISM_CLASSES,
    EditCost,
    edit_kernel,
    general_ged,
    induced_metric,
)
from .orbits import DEFAULT_ORDER_GUARD, OrderGuardError, check_order_guard
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_SUITE = 3

_SCORES = {"dot": DOT, "delta": DELTA}
_TOL = 1e-9


def _env_guard() -> int:
    raw = os.environ.get("GED_ORDER_GUARD")
    if raw is None:
        return DEFAULT_ORDER_GUARD
    try:
        return int(raw)
    except ValueError:
        raise GraphFormatError(f"GED_ORDER_GUARD is not an integer: {raw!r}")


def _tolerance(text: str) -> float:
    """A finite tolerance >= 0; with NaN, every check would compare false."""
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return tol


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_INPUT; exit code 2
    is reserved for the order guard."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# Every optional flag; each subcommand declares the ones it honours.
_FLAGS = {
    "score": (("--score",), dict(choices=sorted(_SCORES), default="dot")),
    "class": (("--class",), dict(dest="morphisms", choices=MORPHISM_CLASSES, default="all")),
    "pad": (("--pad",), dict(choices=PADDING_MODES, default="bound")),
    "order": (("--order",), dict(type=int, default=None, help="fixed padding order")),
    "guard": (("--guard",), dict(type=int, default=None, help="permutation order guard")),
    "tol": (("--tol",), dict(type=_tolerance, default=None, help=f"tolerance (default {_TOL})")),
    "output": (("-o", "--output"), dict(default=None, help="write output to this path")),
}


def _add_flags(sp: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flags, kwargs = _FLAGS[name]
        sp.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphspace",
        description="Exact graph edit kernels and the geometry of their metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="metric between two graph files")
    p.add_argument("files", nargs=2)
    p.add_argument("--witness", action="store_true", help="also print the minimizer")
    _add_flags(p, "score", "class", "pad", "order", "guard", "output")

    p = sub.add_parser("kernel", help="edit kernel between two graph files")
    p.add_argument("files", nargs=2)
    p.add_argument("--witness", action="store_true", help="also print the maximizer")
    _add_flags(p, "score", "class", "pad", "order", "guard", "output")

    p = sub.add_parser("gram", help="pairwise kernel or distance matrix as CSV")
    p.add_argument("paths", nargs="+", help="graph files, or one directory of .json files")
    p.add_argument("--kind", choices=("kernel", "distance"), default="distance")
    _add_flags(p, "score", "class", "pad", "order", "guard", "tol", "output")

    p = sub.add_parser("align", help="aligned matrices of graphs along a center")
    p.add_argument("center")
    p.add_argument("graphs", nargs="+")
    _add_flags(p, "order", "guard", "output")

    p = sub.add_parser("mean", help="Frechet sample mean of graph files")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--max-iter", type=int, default=100)
    _add_flags(p, "order", "guard", "output")

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    for flag, kind in (("--trials", int), ("--seed", int), ("--tol", _tolerance)):
        p.add_argument(flag, type=kind, default=None, help="default: the suite's own")
    _add_flags(p, "guard", "output")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process shares; parsing keeps
    no state in it, and building it takes longer than most commands."""
    return build_parser()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(output).write_text(text, encoding="utf-8")


def _witness_line(perm) -> str:
    return "witness " + " ".join(str(i) for i in perm.images)


def cmd_dist(args, guard: int) -> int:
    x, y = (load_graph(f) for f in args.files)
    score = _SCORES[args.score]
    res = general_ged(
        x, y, EditCost.from_kernel(score), args.morphisms, args.pad, args.order, guard
    )
    # the value of induced_metric, which gram's distance entries call
    lines = [f"{math.sqrt(max(res.value, 0.0)):.12f}"]
    if args.witness:
        lines.append(_witness_line(res.witness))
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_kernel(args, guard: int) -> int:
    x, y = (load_graph(f) for f in args.files)
    res = edit_kernel(
        x, y, _SCORES[args.score], args.morphisms, args.pad, args.order, guard
    )
    lines = [f"{res.value:.12f}"]
    if args.witness:
        lines.append(_witness_line(res.witness))
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def _resolve_collection(paths: list[str]) -> list[Path]:
    if len(paths) == 1 and Path(paths[0]).is_dir():
        files = sorted(Path(paths[0]).glob("*.json"), key=lambda p: p.name)
        if not files:
            raise GraphFormatError(f"no .json graph files in {paths[0]}")
        return files
    return sorted((Path(p) for p in paths), key=lambda p: p.name)


def _validate_distance_matrix(m: list[list[float]], tol: float) -> None:
    k = len(m)
    for i in range(k):
        if abs(m[i][i]) > tol:
            raise GraphFormatError(f"distance matrix diagonal not zero at {i}")
        for j in range(k):
            if abs(m[i][j] - m[j][i]) > tol:
                raise GraphFormatError(f"distance matrix not symmetric at ({i},{j})")
            for l in range(k):
                if m[i][l] > m[i][j] + m[j][l] + tol:
                    raise GraphFormatError(
                        f"triangle inequality violated at ({i},{j},{l})"
                    )


def cmd_gram(args, guard: int) -> int:
    if args.kind == "kernel" and args.tol is not None:
        raise ValueError("--tol applies to gram --kind distance only")
    files = _resolve_collection(args.paths)
    graphs = [load_graph(f) for f in files]
    # The collection's padding order checks the flags and the dimensions.
    # Padding each graph against itself checks the order guard as the
    # diagonal scans would, also where the diagonal is not scanned.
    order = padded_order(graphs, args.pad, args.order)
    if args.pad == "pairwise-sum":
        order = None  # each pair pads to the sum of its own orders
    for g in graphs:
        check_order_guard(padded_order((g, g), args.pad, order), guard)
    score = _SCORES[args.score]
    k = len(graphs)
    # Both kinds are symmetric: scan each unordered pair once.  The kernel
    # diagonal is scanned, since the self-kernel's maximum can round above
    # the identity's score; a distance diagonal is 0.0, the identity's
    # diff form.
    first = 0 if args.kind == "kernel" else 1
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + first, k):
            x, y = graphs[i], graphs[j]
            if args.kind == "kernel":
                value = edit_kernel(x, y, score, args.morphisms, args.pad, order, guard).value
            else:
                value = induced_metric(x, y, score, args.pad, order, guard, args.morphisms)
            matrix[i][j] = matrix[j][i] = value
    if args.kind == "distance":
        _validate_distance_matrix(matrix, _TOL if args.tol is None else args.tol)
    lines = [",".join(f.name for f in files)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in matrix]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_align(args, guard: int) -> int:
    center = load_graph(args.center)
    graphs = [load_graph(p) for p in args.graphs]
    order = padded_order([center, *graphs], "bound", args.order)
    aligner = Alignment(center, order=order, guard=guard)
    payload = [aligner.align(g).cells.tolist() for g in graphs]
    _emit(json.dumps(payload), args.output)
    return EXIT_OK


def cmd_mean(args, guard: int) -> int:
    graphs = [load_graph(p) for p in args.graphs]
    res = sample_mean(graphs, args.max_iter, args.order, guard)
    payload = {
        "mean": json.loads(serialize_graph(res.mean)),
        "frechet_value": res.frechet_value,
        "trace": list(res.trace),
        "converged": res.converged,
    }
    if not res.converged:
        print(f"warning: mean iteration hit max_iter={args.max_iter}", file=sys.stderr)
    _emit(json.dumps(payload), args.output)
    return EXIT_OK


def cmd_check(args, guard: int) -> int:
    if args.suite not in SUITE_NAMES:
        print(
            f"unknown suite {args.suite!r}; available: {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return EXIT_SUITE
    given = {"trials": args.trials, "seed": args.seed, "tol": args.tol}
    params = {k: v for k, v in given.items() if v is not None}
    report = run_suite(args.suite, guard=guard, **params)
    text = "\n".join(report.lines())
    _emit(text, args.output)
    return EXIT_OK if report.passed else 1


_COMMANDS = {
    "dist": cmd_dist,
    "kernel": cmd_kernel,
    "gram": cmd_gram,
    "align": cmd_align,
    "mean": cmd_mean,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        guard = args.guard if args.guard is not None else _env_guard()
        return _COMMANDS[args.command](args, guard)
    except OrderGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
