"""Run one benchmark workload against this checkout and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-annotate --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics (a layer a workload does not reach reads 0). A human-readable
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only for a complete run whose outputs were all correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch-annotate", "route-unique", "serve-zipf", "refresh")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _execute(args, work: Path):
    if args.workload == "batch-annotate":
        from perfbench import batch

        return batch.run(args.seed, args.seconds, bool(args.trace), work)
    if args.workload == "refresh":
        from perfbench import refresh

        return refresh.run(args.seed, args.seconds, bool(args.trace), work)
    from perfbench import online

    return online.run(args.workload, args.seed, args.seconds, bool(args.trace), work)


def _report(args, result, declared: dict, hardware: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"hardware: {json.dumps(hardware, sort_keys=True)}")
    rows = [(name, value, declared.get(name, "")) for name, value in result.end_to_end.items()]
    rows += [(name, value, declared.get(name, "")) for name, value in sorted(result.per_layer.items())]
    for name, value, unit in rows:
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for key, value in result.info.items():
        print(f"  [{key}] {value}")
    for problem in result.problems:
        print(f"  WRONG OUTPUT: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source (src/repro) in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import WORK_DIR, BenchError, hardware

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = hardware()
    try:
        result = _execute(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.per_layer.setdefault("error_rate", result.failed / result.attempted)
    _report(args, result, declared, machine)
    metrics = {}
    for metric in wanted:
        values = result.per_layer if args.trace else result.end_to_end
        if metric["name"] not in values and not args.trace:
            print(f"perfbench: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
