"""Tests for the kNN distance detector and suffix scoring in locate()."""

import numpy as np
import pytest

from repro.bench import _full_series_locate, _legacy_knn_score
from repro.detectors import KnnDistanceDetector
from repro.detectors.base import Detector
from repro.detectors.matrix_profile import subsequence_to_point_scores
from repro.types import LabeledSeries, Labels

W = 24


def walk_series(n=1500, train=700, at=1100, seed=0):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal(n))
    values[at : at + W] += 4.0 * np.sin(np.linspace(0, 6 * np.pi, W))
    return LabeledSeries(
        "walk", values, Labels.from_points(n, [at]), train_len=train
    )


def brute_force_distances(values, train, w, k, znorm, stride):
    def windows(x):
        rows = np.lib.stride_tricks.sliding_window_view(x, w)
        if not znorm:
            return rows
        std = np.maximum(rows.std(axis=1, keepdims=True), 1e-12)
        return (rows - rows.mean(axis=1, keepdims=True)) / std

    reference = windows(train)[::stride]
    kth = min(k, reference.shape[0]) - 1
    return np.array(
        [np.sort(np.linalg.norm(reference - q, axis=1))[kth] for q in windows(values)]
    )


GRID = [
    (k, znorm, stride, train)
    for k in (1, 2, 3)
    for znorm in (True, False)
    for stride in (1, 4)
    for train in (W + 40, 300, 701, 1030)
]


@pytest.mark.parametrize("k,znorm,stride,train", GRID)
def test_suffix_scoring_matches_full_series(k, znorm, stride, train):
    series = walk_series(train=train, seed=k + 7 * stride)

    def make():
        # a small chunk puts several GEMM blocks on both sides of the split
        return KnnDistanceDetector(
            w=W, k=k, znorm=znorm, train_stride=stride, chunk=64
        )

    assert make().locate(series) == _full_series_locate(make(), series)

    detector = make().fit(series.train)
    full = detector.score(series.values)
    assert np.array_equal(full, _legacy_knn_score(detector, series.values))
    start = series.train_len - detector.lookback
    assert start % detector.chunk == 0 and detector.lookback >= W - 1
    suffix = detector.score(series.values[start:])
    assert np.array_equal(suffix[series.train_len - start :], full[series.train_len :])

    # train-region windows can match themselves: a zero distance that the
    # norm expansion leaves at sqrt(rounding noise), so check the test region
    expected = brute_force_distances(
        series.values, series.train, W, k, znorm, stride
    )
    np.testing.assert_allclose(
        full[series.train_len :],
        subsequence_to_point_scores(expected, W, series.n)[series.train_len :],
        rtol=0.0,
        atol=1e-9,
    )


class _Recorder(Detector):
    """Fixed scores with a declared lookback; remembers what it scored."""

    def __init__(self, scores: np.ndarray, lookback: int) -> None:
        self.scores = np.asarray(scores, dtype=float)
        self._lookback = lookback
        self.scored_len = None

    @property
    def lookback(self) -> int:
        return self._lookback

    def score(self, values: np.ndarray) -> np.ndarray:
        self.scored_len = values.size
        return self.scores[self.scores.size - values.size :].copy()


def flat_series(n=300, train=100):
    return LabeledSeries("flat", np.zeros(n), Labels.from_points(n, [200]), train_len=train)


class TestLocateEdgeCases:
    def test_all_minus_inf_test_region_returns_zero(self):
        scores = np.full(300, -np.inf)
        scores[:100] = 5.0  # train-region scores are masked away
        scores[150] = np.nan  # NaN counts as -inf
        detector = _Recorder(scores, lookback=10)
        assert detector.locate(flat_series()) == 0
        assert detector.scored_len == 210

    def test_lookback_longer_than_train_scores_everything(self):
        scores = np.arange(300, dtype=float)[::-1]
        detector = _Recorder(scores, lookback=150)
        assert detector.locate(flat_series()) == 100
        assert detector.scored_len == 300

    def test_short_train_prefix_keeps_full_series_fallback(self):
        series = walk_series(train=W + 1)

        def make():
            return KnnDistanceDetector(w=W, k=2)

        fitted = make().fit(series.train)
        assert fitted.lookback is None  # the prefix is shorter than w + k
        assert make().locate(series) == _full_series_locate(make(), series)

    def test_constant_windows_give_finite_distances(self):
        values = np.concatenate(
            [np.sin(np.arange(400) / 7.0), np.full(200, 3.0), np.sin(np.arange(400) / 5.0)]
        )
        values[:60] = -1.0  # constant windows in the reference too
        series = LabeledSeries(
            "flat-run", values, Labels.from_points(values.size, [500]), train_len=300
        )
        detector = KnnDistanceDetector(w=W).fit(series.train)
        scores = detector.score(series.values)
        assert np.isfinite(scores).all()
        assert series.train_len <= detector.locate(series) < series.n


def test_lookback_is_none_until_fitted():
    detector = KnnDistanceDetector(w=W)
    assert detector.lookback is None
    detector.fit(np.arange(1000, dtype=float))
    assert detector.lookback == W - 1 + (1000 - W + 1) % detector.chunk
