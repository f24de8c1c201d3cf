"""Record the reference outputs the batch workloads are checked against.

Run from the repository root after a change that is meant to alter the
outputs (the tier-1 shoot-out artifacts change with it)::

    python3 perfbench/record_reference.py --seeds 0-31

For each seed it runs `repro run` (shootout) and `repro stream`
(replay) once on the seed's archive and stores the output digests in
``perfbench/reference/<workload>.json``.  A later run on a recorded
seed must reproduce them byte for byte; other seeds are checked for
run-to-run determinism and the UCR correctness rule only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REFERENCE_DIR, ROOT, WORK, require_program  # noqa: E402


def _seeds(text: str) -> "list[int]":
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 11")
    args = parser.parse_args()
    require_program()
    sys.path.insert(0, str(ROOT / "src"))
    import batch

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, artifact in (
        ("shootout", "shootout.cells.jsonl"),
        ("replay", "replay.traces.jsonl"),
    ):
        path = REFERENCE_DIR / f"{workload}.json"
        recorded = json.loads(path.read_text()) if path.is_file() else {}
        for seed in _seeds(args.seeds):
            archive = WORK / "record" / "archive"
            batch.build_archive(seed, archive)
            cfg = {
                "workload": workload,
                "out": str((WORK / "record" / "out").relative_to(ROOT)),
                "expected": batch.expected_outputs(workload, seed, archive),
            }
            cfg["expected"]["reference"] = None
            run = batch.one_run(cfg, str(archive.relative_to(ROOT)))
            if run["wrong"]:
                raise SystemExit(f"{workload} seed {seed}: outputs fail the checks")
            recorded[str(seed)] = {
                "digest": run["digest"],
                "lines": batch.line_digests(ROOT / cfg["out"] / artifact),
            }
            print(f"{workload} seed {seed}: {run['digest'][:16]}", flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
