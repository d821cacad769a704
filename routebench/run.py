"""End-to-end route benchmark for tdroute.

Usage, from the repository root::

    python3 routebench/run.py --workload city --seed 1 --seconds 40 --trace 0

For each of the workload's seeded graphs the run writes the graph file,
times ``load`` + ``build_ael``, and runs a closed loop of one-to-all and
point-to-point queries through the default strategy, the scan reference
and, on constant graphs, b-fatt, checking every answer. Its times are
scaled to a reference host speed by a fixed yardstick run around each
query (see ``measure.yardstick``); the unscaled figures are printed too. With
``--trace 1`` it instead runs a fixed amount of the same work layer by
layer and reports per-layer metrics, writing its spans to
``routebench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The library is
imported from ``src/`` of the checkout this file sits in; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _fail(message: str) -> None:
    print(f"routebench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    """Put the checkout's ``src/`` first on the path and insist on it."""
    src = ROOT / "src"
    if not (src / "tdroute" / "__init__.py").is_file():
        _fail(f"no tdroute sources under {src}")
    sys.path.insert(0, str(src))
    import tdroute

    if Path(tdroute.__file__).resolve().parent != src / "tdroute":
        _fail(f"imported tdroute from {tdroute.__file__}, not from {src}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args: argparse.Namespace, digests: list[str]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": digests,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    _import_library()
    args = parse_args(argv)

    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = measure.Tracer()
        metrics, gate, digests = measure.traced(workload, args.seed, OUT, tracer)
        counts = {}
        env = environment(args, digests)
        trace_path = OUT / f"{workload.name}-seed{args.seed}-trace.json"
        trace_path.write_text(
            json.dumps({"environment": env, "spans": tracer.export()}),
            encoding="utf-8",
        )
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, counts, gate, digests = measure.untraced(
            workload, args.seed, args.seconds, OUT
        )
        env = environment(args, digests)
    print(json.dumps({"environment": env}))

    for name, (value, unit) in metrics.items():
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:40s} {value:14.6g} {unit}{samples}")
    print(f"{'failed_ratio':40s} {gate.failed / gate.attempted:14.6g} ratio"
          f"  ({gate.failed} of {gate.attempted})")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
