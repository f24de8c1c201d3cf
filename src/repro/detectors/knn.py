"""Sliding-window k-nearest-neighbour distance detector.

The "decade-old simple ideas" the paper urges the community to remember
(§4.5): score each test subsequence by its distance to the k-th nearest
subsequence of the anomaly-free training prefix.  With z-normalization
this is the classic nearest-neighbour novelty detector that discord
papers compare against.

Distances come from the ``‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²`` expansion, one
GEMM per block of ``chunk`` query windows, written into two reused
``chunk × train_windows`` float scratch buffers (plus a ``chunk × w``
one for ``2q``).  ``locate`` scores only the suffix a test-region point
can read (see :attr:`lookback`), not the training prefix.
"""

from __future__ import annotations

import numpy as np

from .base import Detector
from .matrix_profile import subsequence_to_point_scores

__all__ = ["KnnDistanceDetector"]

_EPS = 1e-12


def _window_matrix(values: np.ndarray, w: int, znorm: bool) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(
        np.asarray(values, dtype=float), w
    )
    if not znorm:
        return np.ascontiguousarray(windows)
    mean = windows.mean(axis=1, keepdims=True)
    std = windows.std(axis=1, keepdims=True)
    return (windows - mean) / np.maximum(std, _EPS)


class KnnDistanceDetector(Detector):
    """Distance of each subsequence to its k-th nearest train subsequence."""

    def __init__(
        self,
        w: int = 100,
        k: int = 1,
        znorm: bool = True,
        train_stride: int = 1,
        chunk: int = 512,
    ) -> None:
        if w < 2:
            raise ValueError(f"window must be >= 2, got {w}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.w = w
        self.k = k
        self.znorm = znorm
        self.train_stride = train_stride
        self.chunk = chunk
        self._train_windows: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None
        self._fit_len = 0

    @property
    def name(self) -> str:
        return f"kNN(w={self.w},k={self.k})"

    @property
    def lookback(self) -> int | None:
        """``w - 1`` plus a round-down onto the ``chunk`` grid, once fitted.

        A point's score reads the ``w`` windows covering it, so ``w - 1``
        earlier values suffice.  BLAS rounds a GEMM row differently with
        the block's shape, so the extra ``(fit_len - w + 1) % chunk``
        points start ``locate``'s suffix on the chunk grid of a
        full-series score: every block, and so every bit, repeats.
        Unfitted, ``score`` fits on the leading third of its input, so
        no suffix is safe.
        """
        if self._train_windows is None:
            return None
        return self.w - 1 + (self._fit_len - self.w + 1) % self.chunk

    def fit(self, train: np.ndarray) -> "KnnDistanceDetector":
        train = np.asarray(train, dtype=float)
        if train.size >= self.w + self.k:
            windows = _window_matrix(train, self.w, self.znorm)
            self._train_windows = np.ascontiguousarray(windows[:: self.train_stride])
            # squared norms for the ‖a−b‖² = ‖a‖² − 2a·b + ‖b‖² expansion:
            # query-independent, so they belong to fit(), not score()
            self._train_sq = np.einsum(
                "ij,ij->i", self._train_windows, self._train_windows
            )
            self._fit_len = train.size
        return self

    def score(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        n = values.size
        if self._train_windows is None:
            # untrained fallback: treat the leading third as reference
            split = max(self.w + self.k, n // 3)
            self.fit(values[:split])
        if self._train_windows is None or n < self.w:
            return np.full(n, -np.inf)
        reference = self._train_windows
        queries = _window_matrix(values, self.w, self.znorm)
        ref_sq = self._train_sq
        kth = min(self.k, reference.shape[0]) - 1
        rows = min(self.chunk, queries.shape[0])
        # the same arithmetic, in the same order, as
        # ‖q‖² + ‖r‖² − (2q)·r on fresh temporaries, hence the same bits
        sq_buf = np.empty((rows, reference.shape[0]))
        dot_buf = np.empty_like(sq_buf)
        twice_buf = np.empty((rows, self.w))
        distances = np.empty(queries.shape[0])
        for start in range(0, queries.shape[0], self.chunk):
            block = queries[start : start + self.chunk]
            m = block.shape[0]
            sq, dot, twice = sq_buf[:m], dot_buf[:m], twice_buf[:m]
            block_sq = np.einsum("ij,ij->i", block, block)
            np.add(block_sq[:, None], ref_sq, out=sq)
            np.multiply(block, 2.0, out=twice)
            np.matmul(twice, reference.T, out=dot)
            np.subtract(sq, dot, out=sq)
            if kth == 0:
                # fmin skips NaN exactly as partition sorts it last
                best = np.fmin.reduce(sq, axis=1)
            else:
                sq.partition(kth, axis=1)
                best = sq[:, kth]
            # clamping after the selection is exact: max(·, 0) is monotone
            np.sqrt(np.maximum(best, 0.0), out=distances[start : start + m])
        return subsequence_to_point_scores(distances, self.w, n)
