"""Detector protocol.

Every detector maps a series to a per-point anomaly score (higher = more
anomalous) and supports the UCR protocol of returning the single most
likely anomaly location.  Training is optional: detectors that need a
clean prefix (Telemanom, kNN) use it; parameter-free methods (discords)
ignore it — mirroring Fig 13's caption, "Discord uses no training data".
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..types import LabeledSeries

__all__ = ["Detector"]


class Detector(ABC):
    """Base class: ``fit`` on a clean prefix, ``score`` any series."""

    @property
    def name(self) -> str:
        """Display name; defaults to the class name."""
        return type(self).__name__

    def fit(self, train: np.ndarray) -> "Detector":
        """Learn from an anomaly-free prefix.  Default: no-op."""
        return self

    @abstractmethod
    def score(self, values: np.ndarray) -> np.ndarray:
        """Per-point anomaly scores, same length as ``values``.

        Higher means more anomalous.  Points the method cannot score
        (warm-up regions, subsequence tails) must be ``-inf`` or the
        method's minimum, never NaN.
        """

    @property
    def lookback(self) -> int | None:
        """History a point's score needs, or None for the whole series.

        An integer ``L`` promises that the score of point ``i`` reads no
        value before ``values[i - L]``, and that scoring
        ``values[train_len - L:]`` with the state ``fit(train)`` left
        reproduces the full-series score of every test-region point bit
        for bit.  :meth:`locate` uses it to skip the training prefix.
        Read it after :meth:`fit`; the default None is always safe.
        """
        return None

    def locate(self, series: LabeledSeries) -> int:
        """UCR protocol: index of the most anomalous point in the test
        region, in full-series coordinates.

        Fits on the series' training prefix, scores the series — from
        ``lookback`` points before the test region when the detector
        declares it, else the whole of it — and masks the training
        region out of the argmax.  An all ``-inf`` test region yields 0.
        """
        self.fit(series.train)
        lookback = self.lookback
        start = 0 if lookback is None else max(series.train_len - lookback, 0)
        values = series.values[start:]
        scores = np.asarray(self.score(values), dtype=float)
        if scores.shape != values.shape:
            raise ValueError(
                f"{self.name}.score returned shape {scores.shape}, "
                f"expected {values.shape}"
            )
        scores = np.where(np.isnan(scores), -np.inf, scores)
        scores[: series.train_len - start] = -np.inf
        best = int(np.argmax(scores))
        return 0 if scores[best] == -np.inf else start + best

    def __repr__(self) -> str:
        return f"<{self.name}>"
