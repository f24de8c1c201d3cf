"""The batch workloads: the §4.5 shoot-out (`repro run`) and `repro stream`.

The parent process generates and saves the archive (set-up), then runs
the measurement in a fresh child process (``python3 batch.py CONFIG``)
so the child's peak RSS is the run's own.  The child calls
``repro.cli.main`` in-process, as a user's script would, and checks
every output before it counts a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    DEFAULT_SEED,
    ROOT,
    WORK,
    BenchError,
    child_env,
    digest_files,
    load_reference,
    peak_rss_mb,
    provenance,
    timing,
)

# The archive is the first PREFIX series of the seeded UCR-sim archive:
# the paper's two worked exemplars, whose lengths (10,000 and 30,000
# points) do not depend on the seed, so every seed costs the same work.
PREFIX = 2
SETUP_REPEATS = 11
MIN_REPS = 2
# two untraced/traced pairs, interleaved, in a traced run
TRACE_PAIRS = 2
CHILD_TIMEOUT = 170

LINEUPS = {
    # the paper's §4.5 line-up, as the tier-1 shoot-out runs it
    "shootout": (
        "last_point", "diff", "moving_zscore(k=50)", "cusum",
        "telemanom(lags=50)", "knn(w=100)", "matrix_profile(w=100)",
    ),
    # one re-scoring adapter and one incremental kernel
    "replay": ("moving_zscore(k=50)", "matrix_profile(w=100)"),
}
TIER1_CELLS = ROOT / "benchmarks" / "out" / "ucr_detector_shootout.cells.jsonl"


def command(workload: str, archive: str, out: str) -> "list[str]":
    detectors = ",".join(LINEUPS[workload])
    if workload == "shootout":
        return [
            "run", archive, "--detectors", detectors, "--jobs", "1",
            "--out", out, "--name", "shootout",
        ]
    return [
        "stream", archive, "--detectors", detectors, "--batch-size", "32",
        "--out", out, "--name", "replay",
    ]


def config(workload: str) -> dict:
    return {
        "workload": workload,
        "archive": f"ucr-sim prefix {PREFIX}",
        "argv": command(workload, "ARCHIVE", "OUT"),
        "min_reps": MIN_REPS,
        "setup_repeats": SETUP_REPEATS,
    }


# -- set-up (parent) -------------------------------------------------------


def build_archive(seed: int, directory: Path) -> float:
    """Generate the seeded archive prefix and save it; returns seconds."""
    from repro.archive import save_archive
    from repro.datasets.ucr import UcrSimConfig, make_ucr

    started = time.perf_counter()
    archive = make_ucr(UcrSimConfig(seed=seed, size=PREFIX))
    shutil.rmtree(directory, ignore_errors=True)
    save_archive(archive, directory)
    return time.perf_counter() - started


def setup(workload: str, seed: int) -> "tuple[Path, Path, list[float]]":
    base = WORK / workload
    archive_dir = base / "archive"
    times = [build_archive(seed, archive_dir) for _ in range(SETUP_REPEATS)]
    # a one-series copy that warms imports and allocators before timing
    warm_dir = base / "warmup"
    shutil.rmtree(warm_dir, ignore_errors=True)
    warm_dir.mkdir(parents=True)
    first = sorted(archive_dir.glob("UCR_Anomaly_*.txt"))[0]
    shutil.copy(first, warm_dir / first.name)
    return archive_dir, warm_dir, times


def expected_outputs(workload: str, seed: int, archive_dir: Path) -> dict:
    """What the child checks outputs against."""
    expected = {
        "series": sorted(p.stem for p in archive_dir.glob("UCR_Anomaly_*.txt")),
        "reference": load_reference(workload).get(str(seed)),
        "tier1": None,
    }
    if workload == "shootout" and seed == DEFAULT_SEED:
        if not TIER1_CELLS.is_file():
            raise BenchError(f"missing tier-1 reference {TIER1_CELLS}")
        cells = [json.loads(line) for line in TIER1_CELLS.read_text().splitlines()]
        wanted = set(expected["series"])
        expected["tier1"] = [c for c in cells if c["series"] in wanted]
    return expected


def run(workload: str, seed: int, seconds: int, trace: bool):
    """Set up, measure in a child, and return the result pieces."""
    from repro.archive import load_archive
    from repro.runner.manifest import archive_fingerprint

    archive_dir, warm_dir, setup_times = setup(workload, seed)
    archive = load_archive(archive_dir)
    points = sum(int(s.values.size) for s in archive.series)
    mode = "trace" if trace else "measure"
    out_path = WORK / workload / f"child-{mode}.json"
    out_path.unlink(missing_ok=True)
    child_config = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "mode": mode,
        "archive": str(archive_dir.relative_to(ROOT)),
        "warmup": str(warm_dir.relative_to(ROOT)),
        "out": str((WORK / workload / "out").relative_to(ROOT)),
        "result": str(out_path),
        "expected": expected_outputs(workload, seed, archive_dir),
    }
    config_path = WORK / workload / f"child-{mode}-config.json"
    config_path.write_text(json.dumps(child_config))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "batch.py"), str(config_path)],
        cwd=ROOT,
        env=child_env(),
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0 or not out_path.is_file():
        raise BenchError(f"{workload} child exited with {proc.returncode}")
    child = json.loads(out_path.read_text())

    report = {
        "provenance": provenance(
            workload,
            seed,
            config(workload),
            archive_fingerprint=archive_fingerprint(archive),
            archive_points=points,
        ),
        "setup_s": setup_times,
        "child": child,
    }
    if trace:
        return report, child["ok"], child["attempted"], child["failed"], child["layers"]
    # one request here is one complete, verified run: the append and
    # read latencies both read its latency (with fewer than twenty runs
    # the tail is the median, see common.tail)
    latency = timing(child["walls"], 1e3)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(child["walls"]),
        "append_p50_ms": latency["p50"],
        "append_p99_ms": latency["p99"],
        "read_p50_ms": latency["p50"],
        "read_p99_ms": latency["p99"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return report, child["ok"], child["attempted"], child["failed"], metrics


# -- measurement (child) ---------------------------------------------------


def _invoke(argv: "list[str]") -> str:
    """``repro.cli.main`` in-process; returns what it printed."""
    from repro.cli import main

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    if code != 0:
        raise BenchError(f"repro {argv[0]} exited with {code}")
    return captured.getvalue()


def _ucr_correct(cell: dict) -> bool:
    start, end = cell["region"]
    slop = max(100, end - start)
    return start - slop <= cell["location"] < end + slop


def check_shootout(out: Path, expected: dict) -> "tuple[int, int, str]":
    """(cells checked, cells wrong, digest) for one run's artifacts."""
    path = out / "shootout.cells.jsonl"
    cells = [json.loads(line) for line in path.read_text().splitlines()]
    wrong = 0
    want = len(expected["series"]) * len(LINEUPS["shootout"])
    keys = {(c["detector"], c["series"]) for c in cells}
    if len(cells) != want or len(keys) != want:
        wrong += abs(want - len(keys)) or 1
    for cell in cells:
        if cell["series"] not in expected["series"]:
            wrong += 1
        elif cell["correct"] != _ucr_correct(cell):
            wrong += 1
    if expected["tier1"] is not None:
        found = {(c["detector"], c["series"]): c for c in cells}
        for ref in expected["tier1"]:
            cell = found.get((ref["detector"], ref["series"]))
            if cell is None or (cell["location"], cell["correct"]) != (
                ref["location"],
                ref["correct"],
            ):
                wrong += 1
    digest = digest_files([path])
    return want, wrong + _reference_mismatches(expected, digest, path), digest


def check_replay(out: Path, expected: dict) -> "tuple[int, int, str]":
    traces = out / "replay.traces.jsonl"
    stats = out / "replay.stats.json"
    lines = traces.read_text().splitlines()
    want = len(expected["series"]) * len(LINEUPS["replay"])
    wrong = abs(want - len(lines))
    digest = digest_files([traces, stats])
    return want, wrong + _reference_mismatches(expected, digest, traces), digest


def line_digests(path: Path) -> "list[str]":
    return [
        hashlib.sha256(line.encode()).hexdigest()[:16]
        for line in path.read_text().splitlines()
    ]


def _reference_mismatches(expected: dict, digest: str, path: Path) -> int:
    """Output records that differ from the recorded reference (0 if none)."""
    reference = expected["reference"]
    if reference is None or reference["digest"] == digest:
        return 0
    lines = line_digests(path)
    differ = sum(a != b for a, b in zip(lines, reference["lines"]))
    return max(1, differ + abs(len(lines) - len(reference["lines"])))


def one_run(cfg: dict, archive: str, recorder=None) -> dict:
    """Run the command once and check its outputs; returns the record."""
    out = ROOT / cfg["out"]
    shutil.rmtree(out, ignore_errors=True)
    argv = command(cfg["workload"], archive, cfg["out"])
    started = time.perf_counter()
    if recorder is None:
        _invoke(argv)
    else:
        from layers import ROOT as ROOT_SPAN

        span = recorder.open(ROOT_SPAN)
        try:
            _invoke(argv)
        finally:
            recorder.close(span)
    wall = time.perf_counter() - started
    check = check_shootout if cfg["workload"] == "shootout" else check_replay
    checked, wrong, digest = check(out, cfg["expected"])
    return {
        "wall": wall,
        "checked": checked,
        "wrong": wrong,
        "digest": digest,
    }


def _warm(cfg: dict) -> None:
    out = ROOT / cfg["out"]
    shutil.rmtree(out, ignore_errors=True)
    _invoke(command(cfg["workload"], cfg["warmup"], cfg["out"]))


def measure(cfg: dict) -> dict:
    _warm(cfg)
    deadline = time.perf_counter() + cfg["seconds"]
    runs = []
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        runs.append(one_run(cfg, cfg["archive"]))
    return summarize(cfg, runs, walls=[r["wall"] for r in runs])


def summarize(cfg: dict, runs: list, **extra) -> dict:
    digests = {r["digest"] for r in runs}
    attempted = sum(r["checked"] for r in runs)
    failed = sum(r["wrong"] for r in runs)
    if len(digests) > 1:
        # runs of one input disagree with each other: count the later ones
        failed += sum(r["checked"] for r in runs[1:])
    return {
        "ok": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "digests": sorted(digests),
        "reference_checked": cfg["expected"]["reference"] is not None,
        "tier1_checked": cfg["expected"]["tier1"] is not None,
        "peak_rss_mb": peak_rss_mb(),
        **extra,
    }


def cli_trace(cfg: dict, path: Path) -> "tuple[float, dict]":
    """One run with the program's own ``--trace``, read by ``obs rollup``."""
    out = ROOT / cfg["out"]
    shutil.rmtree(out, ignore_errors=True)
    argv = command(cfg["workload"], cfg["archive"], cfg["out"])
    started = time.perf_counter()
    _invoke(argv + ["--trace", str(path)])
    wall = time.perf_counter() - started
    rollup = json.loads(_invoke(["obs", "rollup", str(path), "--format", "json"]))
    return wall, rollup


def traced(cfg: dict) -> dict:
    import layers

    _warm(cfg)
    plain, spanned, runs = [], [], []
    recorder = None
    for _ in range(TRACE_PAIRS):
        runs.append(one_run(cfg, cfg["archive"]))
        plain.append(runs[-1]["wall"])
        recorder = layers.Recorder()
        undo = layers.install(recorder)
        try:
            runs.append(one_run(cfg, cfg["archive"], recorder))
        finally:
            layers.uninstall(undo)
        spanned.append(runs[-1]["wall"])
    values = layers.per_layer(recorder, spanned[-1])
    base = statistics.median(plain)
    cli_wall, rollup = cli_trace(cfg, WORK / cfg["workload"] / "cli-trace.jsonl")
    rows = {row["name"]: row for row in rollup["rows"]}
    engine = rows.get("engine.run")
    result = summarize(cfg, runs, plain=plain, spanned=spanned, cli_wall=cli_wall)
    if values["obs.self_sum_error_pct"] > layers.SELF_SUM_TOLERANCE_PCT:
        result["ok"] = False
    result["layers"] = {
        **values,
        f"obs.trace_overhead_pct.{cfg['workload']}": (
            (statistics.median(spanned) - base) / base * 100.0
        ),
        "obs.cli_trace_overhead_pct": (cli_wall - base) / base * 100.0,
        "obs.engine_run_self_share": (
            engine["self_us"] / engine["total_us"] if engine else 0.0
        ),
    }
    return result


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    result = traced(cfg) if cfg["mode"] == "trace" else measure(cfg)
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
