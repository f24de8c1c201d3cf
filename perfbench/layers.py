"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (the
functions and methods :func:`install` names) with a span recorder that
lives here, in the benchmark, so the program's code is measured as it
is.  Spans nest by call order on one thread; a span's self time is its
duration minus its children's, so the self times of all spans under the
root add up to the root's wall time exactly when the spans nest.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

from common import tail

# layer spans, by the metric prefix they feed
ARCHIVE = "archive.load"
ENGINE = "runner.engine"
ARTIFACTS = "runner.artifacts"
LOCATE = "detectors.locate"
MP_KERNEL = "detectors.matrix_profile.kernel"
KNN_SCORE = "detectors.knn.score"
SCORING = "scoring.ucr"
REPLAY = "stream.replay"
FIT = "stream.fit"
UPDATE = "stream.update"
TRACE = "stream.trace"
LEADERBOARD = "stats.leaderboard"
ROOT = "cli"

# the self times of every span must add up to the traced run's wall
# time within this share; a larger gap means spans overlapped
SELF_SUM_TOLERANCE_PCT = 1.0

SHOOTOUT_DETECTORS = (
    "last_point",
    "diff",
    "moving_zscore",
    "cusum",
    "telemanom",
    "knn",
    "matrix_profile",
)
REPLAY_DETECTORS = ("moving_zscore", "matrix_profile")


class Span:
    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = None
        self.children: list[Span] = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(child.seconds for child in self.children)


class Recorder:
    """In-memory span tree plus counters, filled by the wrappers."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)

    @property
    def current(self) -> "str | None":
        return self._stack[-1].name if self._stack else None

    def open(self, name: str, **attrs) -> Span:
        span = Span(name, attrs)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def walk(self):
        pending = list(self.roots)
        while pending:
            span = pending.pop()
            yield span
            pending.extend(span.children)


def _wrap(recorder: Recorder, owner, attr: str, name: str, describe=None):
    """Replace a module's or class's ``attr`` with a spanned call.

    Returns ``(owner, attr, original)`` for :func:`uninstall`.
    """
    original = vars(owner)[attr]

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        attrs = describe(*args, **kwargs) if describe is not None else {}
        span = recorder.open(name, **attrs)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(span)

    setattr(owner, attr, spanned)
    return owner, attr, original


def _registry_names():
    from repro.detectors import DETECTORS

    return {factory: name for name, factory in DETECTORS.items()}


def _stream_label(streaming, names) -> str:
    """Registry name of the batch detector a streaming detector runs."""
    from repro.stream.adapters import BatchStreamingAdapter

    if isinstance(streaming, BatchStreamingAdapter):
        return names.get(type(streaming.detector), type(streaming.detector).__name__)
    return "matrix_profile"  # the native incremental kernel


def install(recorder: Recorder) -> list:
    """Wrap every layer entry point; returns what :func:`uninstall` needs."""
    import repro.archive
    import repro.stream
    from repro.detectors.base import Detector
    from repro.detectors.knn import KnnDistanceDetector
    from repro.runner.engine import EvalEngine, UcrScoring
    from repro.runner.results import ResultsStore
    from repro.stream import adapters

    # the packages re-export these functions under the modules' names
    kernel_module = sys.modules["repro.detectors.matrix_profile"]
    replay_module = sys.modules["repro.stream.replay"]
    names = _registry_names()
    undo = []

    def locate_attrs(detector, series):
        return {"detector": names.get(type(detector), type(detector).__name__)}

    def kernel_attrs(values, w, exclusion=None, **_):
        m = len(values) - w + 1
        zone = w if exclusion is None else exclusion
        # pairs on the diagonals the self-join sweeps, from the shape
        return {"pairs": max(0, m - zone) * max(0, m - zone + 1) // 2}

    def knn_attrs(detector, values):
        reference = detector._train_windows
        rows = 0 if reference is None else reference.shape[0]
        return {"pairs": max(0, len(values) - detector.w + 1) * rows}

    def stream_attrs(streaming, values):
        return {
            "detector": _stream_label(streaming, names),
            "points": len(values),
            "rescoring": isinstance(streaming, adapters.BatchStreamingAdapter),
        }

    def fit_attrs(streaming, train):
        return {"detector": _stream_label(streaming, names)}

    undo.append(_wrap(recorder, repro.archive, "load_archive", ARCHIVE))
    undo.append(_wrap(recorder, EvalEngine, "run", ENGINE))
    for method in ("write", "write_traces", "write_stats"):
        undo.append(_wrap(recorder, ResultsStore, method, ARTIFACTS))
    undo.append(_wrap(recorder, Detector, "locate", LOCATE, locate_attrs))
    undo.append(
        _wrap(recorder, kernel_module, "matrix_profile", MP_KERNEL, kernel_attrs)
    )
    undo.append(
        _wrap(recorder, KnnDistanceDetector, "score", KNN_SCORE, knn_attrs)
    )
    undo.append(_wrap(recorder, UcrScoring, "correct", SCORING))
    undo.append(_wrap(recorder, repro.stream, "replay_grid", REPLAY))
    undo.append(
        _wrap(recorder, replay_module, "trace_from_scores", TRACE)
    )
    undo.append(
        _wrap(recorder, repro.stream, "streaming_leaderboard", LEADERBOARD)
    )
    # what `repro stream` builds: the re-scoring adapter and the
    # incremental matrix profile
    for cls in (
        adapters.BatchStreamingAdapter,
        adapters.StreamingMatrixProfileDetector,
    ):
        undo.append(_wrap(recorder, cls, "fit", FIT, fit_attrs))
        undo.append(_wrap(recorder, cls, "update", UPDATE, stream_attrs))

    # points the re-scoring adapter hands to ``score``, counted (not
    # spanned) so the waste ratio costs one addition per call
    for cls in {factory for factory in names if "score" in factory.__dict__}:
        original = cls.__dict__["score"]

        def counted(self, values, _original=original):
            if recorder.current == UPDATE:
                recorder.counts["rescored_points"] += len(values)
            return _original(self, values)

        functools.update_wrapper(counted, original)
        cls.score = counted
        undo.append((cls, "score", original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def per_layer(recorder: Recorder, wall: float) -> dict:
    """Per-layer metric values (seconds, counts, ratios) from the spans.

    Layers absent from the workload's path read 0.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    pairs = defaultdict(int)
    updates = defaultdict(list)
    streamed = 0
    self_sum = 0.0
    for span in recorder.walk():
        total[span.name] += span.seconds
        own[span.name] += span.self_seconds
        calls[span.name] += 1
        pairs[span.name] += span.attrs.get("pairs", 0)
        self_sum += span.self_seconds
        detector = span.attrs.get("detector")
        if detector is not None:
            total[f"{span.name}.{detector}"] += span.seconds
        if span.name == UPDATE:
            updates[detector].append(span.seconds)
            if span.attrs["rescoring"]:
                streamed += span.attrs["points"]

    def ns_per_pair(name):
        return total[name] / pairs[name] * 1e9 if pairs[name] else 0.0

    values = {
        "archive.load_s": total[ARCHIVE],
        "runner.engine_s": total[ENGINE],
        "runner.self_s": own[ENGINE],
        "runner.artifacts_s": total[ARTIFACTS],
        "detectors.calls": calls[LOCATE],
        "detectors.matrix_profile.kernel_s": total[MP_KERNEL],
        "detectors.matrix_profile.pairs": pairs[MP_KERNEL],
        "detectors.matrix_profile.ns_per_pair": ns_per_pair(MP_KERNEL),
        "detectors.knn.ns_per_pair": ns_per_pair(KNN_SCORE),
        "scoring.ucr_s": total[SCORING],
        "stream.replay_s": total[REPLAY],
        "stream.fit_s": total[FIT],
        "stream.trace_s": total[TRACE],
        "stream.self_s": own[REPLAY],
        "stream.rescore_ratio": (
            recorder.counts["rescored_points"] / streamed if streamed else 0.0
        ),
        "stats.leaderboard_s": total[LEADERBOARD],
        "cli.self_s": own[ROOT],
        "obs.self_sum_error_pct": abs(self_sum - wall) / wall * 100.0,
    }
    for detector in SHOOTOUT_DETECTORS:
        values[f"detectors.locate_s.{detector}"] = total[f"{LOCATE}.{detector}"]
    for detector in REPLAY_DETECTORS:
        samples = updates.get(detector, [])
        values[f"stream.update_s.{detector}"] = sum(samples)
        values[f"stream.update_calls.{detector}"] = len(samples)
        values[f"stream.update_us.p50.{detector}"] = (
            statistics.median(samples) * 1e6 if samples else 0.0
        )
        values[f"stream.update_us.p99.{detector}"] = (
            tail(samples)[0] * 1e6 if samples else 0.0
        )
    return values
