"""End-to-end benchmark of the three user paths, with per-layer splits.

Run from the repository root::

    python3 perfbench/run.py --workload shootout --seed 11 --seconds 30 --trace 0

Workloads: ``shootout`` (`repro run`, the §4.5 detector shoot-out),
``replay`` (`repro stream`) and ``serve_http`` (`repro serve` driven
over HTTP by an open-loop generator).  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line
of standard output is the result object; the line before it is the
detail report (provenance, raw samples, sample counts).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED,
    ROOT,
    WORK,
    BenchError,
    emit,
    require_program,
)

WORKLOADS = ("shootout", "replay", "serve_http")


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    return json.loads(path.read_text())


def _with_units(values: dict, declared: "list[dict]", workload: str) -> dict:
    """Attach the declared units; every declared metric, nothing else.

    A per-layer metric whose layer is not on this workload's path reads
    0; an end-to-end metric must be measured on every workload.
    """
    names = {entry["name"] for entry in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise BenchError(f"{workload} produced undeclared metrics {unknown}")
    metrics = {}
    for entry in declared:
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the processes it started stop;
    # and SIGINT must not stay ignored (as it is under a background
    # shell), or the server children inherit that and cannot be stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        require_program()
        declared = _declared()
        sys.path.insert(0, str(ROOT / "src"))
        WORK.mkdir(exist_ok=True)
        if args.workload == "serve_http":
            import serve_http

            outcome = serve_http.run(args.seed, args.seconds, bool(args.trace))
        else:
            import batch

            outcome = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
        report, correct, attempted, failed, values = outcome
        kind = "per_layer" if args.trace else "end_to_end"
        if not args.trace:
            missing = {e["name"] for e in declared[kind]} - set(values)
            if missing:
                raise BenchError(f"{args.workload} did not measure {missing}")
        metrics = _with_units(values, declared[kind], args.workload)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    emit(report, correct and failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
