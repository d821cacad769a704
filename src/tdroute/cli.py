"""Command-line front end: route, att, bench, gen, validate.

Exit codes: 0 success, 2 parse/validation failure (argparse errors
included), 3 unreachable target under --require-reachable, 1 benchmark
integrity failure, 141 stdout closed by its reader (as after SIGPIPE).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .bench import ChecksumMismatch, SweepConfig, run_sweep, to_csv
from .io_gen import (GeneratorConfig, GraphFormatError, _num, generate, load, save,
                     validate_file)
from .landmarks import build_landmarks
from .model import KINDS, POLICIES, TdGraph
from .routing import (
    _PLANS,
    STRATEGIES,
    shortest_path_to,
    shortest_paths,
    traverse_arc,
)
from .traversal import AelTable, _prefix_table


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # inside the try, so a closed pipe is caught here
        return code
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at the null device so
        # the flush at exit cannot fail again, and report what a shell
        # reports for a tool stopped by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GraphFormatError, ValueError, OSError) as error:
        print(f"tdroute: {error}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdroute",
        description="Shortest paths on networks with time-dependent speeds.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    route = commands.add_parser("route", help="one-to-all or point-to-point query")
    route.add_argument("graph", help="graph file")
    route.add_argument("source", type=int)
    route.add_argument("--target", type=int, default=None)
    route.add_argument("--departure", type=float, default=0.0)
    route.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="default: fatt for constant profiles, l-fatt for linear",
    )
    route.add_argument("--csv", action="store_true", help="machine-readable output")
    route.add_argument(
        "--require-reachable",
        action="store_true",
        help="exit 3 when the target is unreachable",
    )
    route.set_defaults(handler=cmd_route)

    att_cmd = commands.add_parser("att", help="single-arc traversal query")
    att_cmd.add_argument("graph", help="graph file")
    att_cmd.add_argument("arc_index", type=int)
    att_cmd.add_argument("--departure", type=float, default=0.0)
    att_cmd.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="default: att for constant profiles, att-linear for linear",
    )
    att_cmd.set_defaults(handler=cmd_att)

    bench = commands.add_parser("bench", help="operation-count scaling sweep")
    bench.add_argument("--kmin", type=int, default=1024)
    bench.add_argument("--kmax", type=int, default=1048576)
    bench.add_argument(
        "--strategies", default="att,fatt", help="comma-separated list"
    )
    bench.add_argument("--queries", type=int, default=8)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--span", type=float, default=0.9)
    bench.add_argument(
        "--window", type=int, default=None, help="force a uniform Q for b-fatt"
    )
    bench.add_argument("--policy", choices=POLICIES, default="static")
    bench.add_argument("--out", default=None, help="CSV file (default stdout)")
    bench.set_defaults(handler=cmd_bench)

    gen = commands.add_parser("gen", help="write a random graph file")
    gen.add_argument("out", help="output file")
    gen.add_argument("--nodes", type=int, default=10)
    gen.add_argument("--avg-degree", type=float, default=2.0)
    gen.add_argument("--intervals", type=int, default=8)
    gen.add_argument("--horizon", type=float, default=3600.0)
    gen.add_argument(
        "--speed-range", type=float, nargs=2, default=(5.0, 30.0),
        metavar=("MIN", "MAX"),
    )
    gen.add_argument(
        "--length-range", type=float, nargs=2, default=(50.0, 500.0),
        metavar=("MIN", "MAX"),
    )
    gen.add_argument("--kind", choices=KINDS, default="constant")
    gen.add_argument("--policy", choices=POLICIES, default="static")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(handler=cmd_gen)

    validate = commands.add_parser("validate", help="check a graph file")
    validate.add_argument("graph")
    validate.set_defaults(handler=cmd_validate)
    return parser


def cmd_route(args: argparse.Namespace) -> int:
    graph = load(args.graph)
    strategy, table = _plan(graph, args.strategy, searches=True,
                            target=args.target is not None)
    if args.target is None:
        result = shortest_paths(
            graph, table, args.source, args.departure, strategy
        )
        # --csv prints io_gen's number format, in which inf is "inf".
        sep, number, missing = ((",", _num, "") if args.csv
                                else (" ", _pretty, "-"))
        print(sep.join(("node", "arrival", "predecessor")))
        for node, pred in enumerate(result.predecessor):
            pred = missing if pred is None else pred
            print(f"{node}{sep}{number(result.arrival[node])}{sep}{pred}")
        return 0
    outcome = shortest_path_to(
        graph, table, args.source, args.target, args.departure, strategy
    )
    if args.csv:
        print("target,arrival,path")
        path = "" if outcome.path is None else " ".join(map(str, outcome.path))
        print(f"{args.target},{_num(outcome.arrival)},{path}")
    elif outcome.path is None:
        print(f"target {args.target} unreachable")
    else:
        print("path: " + " ".join(map(str, outcome.path)))
        print(f"arrival: {_pretty(outcome.arrival)}")
    if args.require_reachable and outcome.path is None:
        return 3
    return 0


def cmd_att(args: argparse.Namespace) -> int:
    graph = load(args.graph)
    strategy, table = _plan(graph, args.strategy, searches=False)
    result = traverse_arc(graph, table, args.arc_index, args.departure, strategy)
    print(f"cost {_pretty(result.cost)}")
    print(f"arrival_interval {result.arrival_interval}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.kmin < 2 or args.kmax < args.kmin:
        raise ValueError("need 2 <= kmin <= kmax")
    k_values = []
    k = args.kmin
    while k <= args.kmax:
        k_values.append(k)
        k *= 2
    config = SweepConfig(
        k_values=tuple(k_values),
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        queries=args.queries,
        seed=args.seed,
        span=args.span,
        policy=args.policy,
        window=args.window,
    )
    try:
        records = run_sweep(config) if config.queries else []
    except ChecksumMismatch as error:
        print(f"tdroute: {error}", file=sys.stderr)
        return 1
    text = to_csv(records)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        nodes=args.nodes,
        avg_degree=args.avg_degree,
        intervals=args.intervals,
        horizon=args.horizon,
        speed_range=tuple(args.speed_range),
        length_range=tuple(args.length_range),
        kind=args.kind,
        policy=args.policy,
        seed=args.seed,
    )
    save(generate(config), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    errors = validate_file(args.graph)
    for error in errors:
        print(f"{args.graph}: {error}", file=sys.stderr)
    return 2 if errors else 0


def _plan(
    graph: TdGraph, strategy: str | None, searches: bool, target: bool = False
) -> tuple[str, AelTable | None]:
    """The strategy (default: the graph kind's unwindowed search, or its scan
    when not ``searches``) and its table, built in one step: the landmark
    lists that A* reads toward a ``target``, and for a search the prefix
    rows and window bounds, each filled when a crossing first needs a
    search. A one-to-all scan gets no table."""
    if strategy is None:
        default = (graph.kind, searches, False)
        strategy = next(s for s, plan in _PLANS.items() if plan == default)
    landmarks = build_landmarks(graph) if target else []
    if _PLANS[strategy][1]:
        return strategy, _prefix_table(graph, landmarks)
    return strategy, AelTable([], [], landmarks) if target else None


def _pretty(x: float) -> str:
    return "unreachable" if math.isinf(x) else f"{x:.9g}"
