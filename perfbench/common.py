"""Shared helpers: paths, quantiles, provenance and the result line.

Everything here is standard library only, so a checkout without the
program's sources can still import it and fail cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = BENCH_DIR / "reference"

# the seed the committed tier-1 shoot-out artifacts were computed with
DEFAULT_SEED = 11


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}; run from the repository root"
        )


def child_env() -> dict:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # keep temporary files inside the checkout
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def quantile(samples, q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise BenchError("quantile of no samples")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(samples, q: float = 0.99) -> "tuple[float, float]":
    """The ``q`` quantile, or the highest one with ten samples beyond it.

    A percentile with fewer than ten samples above it is one outlier's
    reading, so the quantile is lowered until ten samples lie beyond
    it, and to the median when there are fewer than twenty samples.
    Returns ``(value, quantile_used)``.
    """
    n = len(samples)
    used = 0.5 if n < 20 else max(0.5, min(q, 1.0 - 10.0 / n))
    return quantile(samples, used), used


def timing(samples, scale: float = 1.0) -> dict:
    """Median and tail of a timing sample, with the sample count."""
    p99, used = tail(samples)
    return {
        "n": len(samples),
        "p50": statistics.median(samples) * scale,
        "p99": p99 * scale,
        "p99_quantile_used": used,
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode() + b"\x00")
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _source_digest() -> str:
    files = sorted((SRC / "repro").rglob("*.py"))
    return digest_files(files)[:16] if files else "none"


def _commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None  # an exported tree: the source digest identifies it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(workload: str, seed: int, config: dict, **extra) -> dict:
    """Host, code and input identity stamped on every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
        },
        "commit": _commit(),
        "source_digest": _source_digest(),
        "config_digest": digest_json(config)[:16],
        "config": config,
        **extra,
    }


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics):
    """Print the detail report, then the result object as the last line."""
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}
