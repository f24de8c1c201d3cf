"""Sharded execution of the mpx diagonal sweep — the kernel's one path.

The diagonal sweep in :mod:`repro.detectors.matrix_profile` is
embarrassingly parallel over diagonal blocks: a block's contribution
depends only on the O(n) recurrence vectors (``dfp``/``dgp``/``invp``),
the anchor covariances ``c0`` and the block's own buffers — never on
another block's running state.  This module partitions the diagonal
range into contiguous, *block-aligned* shards and sweeps each shard
with the chunk-carry kernel.  Every sweep runs this plan: ``jobs=1``
sweeps the shards in-process into one shared running profile, and
``jobs > 1`` sweeps them in a ``ProcessPoolExecutor`` and merges the
per-shard running maxima.

Three invariants make the result **bit-identical** to one whole-range
sweep for every ``jobs`` value:

* **Block alignment.**  Shard boundaries fall on multiples of the
  kernel block size past the exclusion zone, so a shard's internal
  block starts coincide exactly with the whole-range sweep's.  Every
  float op inside a block is then the same op that sweep performs —
  chunk widths may differ per shard, but the chunk-carry contract
  already makes results chunk-width independent.
* **Jobs-independent planning.**  :func:`plan_shards` derives the
  partition from the problem shape alone (never from ``jobs``), so the
  shard list — and therefore the merge order, the spans each shard
  exports and the final bits — is identical whether one process or
  eight consume it.
* **Ascending diagonal order.**  In-process shards accumulate into the
  shared arrays in ascending diagonal order, which *is* the whole-range
  sweep's order of operations.  Pool shards merge in that order with a
  strict ``>``, mirroring the kernel's cross-block tie rule (earliest
  diagonal wins; within a block the kernel's own row-before-column
  ordering is preserved because the shard *is* the kernel), so a tie
  between two shards resolves to the same neighbour index.

Early abandonment is one rule, decided on the merged profile: every row
that has a valid pair under the *caller's* exclusion must clear the
threshold.  The in-process loop checks it after every block on the
shared profile and stops there.  A pool shard checks it on its own
partial profile — sound, because partial maxima only understate the
merged ones, and rows the shard does not cover stay at -inf — and the
merged profile gets the final check.  A shard-local check that exempts
the rows of its own exclusion band would instead call a profile
saturated while rows fed only by other shards are still far from the
floor.

Workers receive the raw series once per process (pool initializer) and
rebuild :class:`~repro.detectors.sliding.SlidingStats` locally — the
stats pipeline is deterministic, so recomputed means/inverse-stds are
bit-equal to the parent's and nothing O(n²) crosses the pipe.  Each
shard is traced under an ``mpx.shard`` span when the parent is
tracing; exports travel back by value for :meth:`Tracer.adopt`, exactly
like evaluation-engine cells, in-process and pooled alike.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from .sliding import SlidingStats

__all__ = ["plan_shards", "sharded_sweep", "ShardOutcome"]

# hard ceiling on shards per sweep: each shard re-derives the O(n·w)
# anchor covariances, so the count must stay far below the point where
# that rivals the O(m²/shards) sweep work itself
_MAX_SHARDS = 32
# a shard smaller than this many diagonal blocks is not worth its
# anchor recomputation; small inputs collapse to fewer (or one) shards
_MIN_SHARD_BLOCKS = 4


def plan_shards(
    m: int,
    exclusion: int,
    *,
    diag_stop: "int | None" = None,
    block: "int | None" = None,
) -> "list[tuple[int, int]]":
    """Partition diagonals ``[exclusion, diag_stop)`` into aligned shards.

    Returns contiguous ``(d_lo, d_hi)`` ranges whose interior boundaries
    are block-aligned (``exclusion + k * block``) and whose *pair*
    counts — diagonal ``d`` holds ``m - d`` pairs, so leading diagonals
    are the heaviest — are as balanced as contiguity allows.  The plan
    depends only on the problem shape, never on the worker count: the
    same input always produces the same shards, which is what makes the
    sharded sweep's results and traces independent of ``jobs``.
    """
    if block is None:
        from .matrix_profile import _DIAG_BLOCK

        block = _DIAG_BLOCK
    stop = m if diag_stop is None else min(int(diag_stop), m)
    if exclusion >= stop:
        return []
    starts = np.arange(exclusion, stop, block, dtype=np.int64)
    count = max(1, min(_MAX_SHARDS, starts.size // _MIN_SHARD_BLOCKS))
    if count == 1:
        return [(int(exclusion), int(stop))]
    ends = np.minimum(starts + block, stop)
    pairs = (ends - starts) * m - (ends * (ends - 1) - starts * (starts - 1)) // 2
    cum = np.cumsum(pairs)
    targets = np.arange(1, count) * (int(cum[-1]) // count)
    cuts = np.unique(
        np.clip(np.searchsorted(cum, targets, side="left") + 1, 1, starts.size - 1)
    )
    bounds = [int(exclusion)] + [int(starts[c]) for c in cuts] + [int(stop)]
    return list(zip(bounds[:-1], bounds[1:]))


class ShardOutcome(NamedTuple):
    """What one sweep over all shards produced.

    ``best``/``bestj`` are the merged running maxima (``bestj`` is
    ``None`` without index tracking).  ``chunk_width`` is the leading
    shard's column-chunk width (``None`` = one full-width chunk);
    ``workspace_bytes`` the *largest* single-shard scratch footprint —
    the per-worker number a process budget of ``workspace_bytes × jobs``
    bounds.  Unbudgeted, that is the leading shard, the one with the
    longest diagonals.  ``abandoned`` is True when the early-abandon
    threshold holds for the merged profile; ``best`` is then
    incomplete.  ``exports`` holds each swept shard's
    ``(trace_records, registry_state)`` in shard order (``None``
    entries when untraced) for :meth:`Tracer.adopt`.
    """

    best: np.ndarray
    bestj: "np.ndarray | None"
    chunk_width: "int | None"
    workspace_bytes: int
    abandoned: bool
    exports: list
    shards: "list[tuple[int, int]]"


def _shard_chunk(
    m: int,
    d_lo: int,
    worker_budget: "int | None",
    chunk_width: "int | None",
    need_indices: bool,
) -> "int | None":
    """Column-chunk width for one shard's sweep.

    An explicit ``chunk_width`` wins (every shard tiles alike);
    otherwise the *per-worker* budget derives the widest fitting chunk
    for this shard's geometry; with neither, ``None`` (one full-width
    chunk).  Results do not depend on the width either way.
    """
    from .matrix_profile import _chunk_for_budget

    if chunk_width is not None:
        chunk_width = int(chunk_width)
        if chunk_width < 1:
            raise ValueError(f"chunk_width must be >= 1, got {chunk_width}")
        return chunk_width
    if worker_budget is None:
        return None
    return _chunk_for_budget(m, d_lo, int(worker_budget), need_indices=need_indices)


class _ShardContext(NamedTuple):
    """Everything a worker needs to sweep any shard of one problem."""

    x: np.ndarray
    w: int
    mean: np.ndarray
    inv: np.ndarray
    exclusion: int
    need_indices: bool
    chunk_width: "int | None"
    worker_budget: "int | None"
    abandon: "float | None"
    traced: bool


def _sweep_one(
    context: _ShardContext, index: int, d_lo: int, d_hi: int, out=None
):
    """Sweep one shard; returns ``(swept, trace_records, registry_state)``.

    ``swept`` is the kernel's ``(best, bestj, workspace_bytes)`` tuple,
    or ``None`` when the early-abandon check fired; ``out`` is the
    shared running ``(best, bestj)`` of an in-process sweep.  The shard
    is traced inside its own session so the records travel by value;
    the span tree (``mpx.shard`` wrapping the kernel's
    ``mpx.block``/``mpx.chunk`` spans) is identical in-process and in a
    pool worker.
    """
    from .matrix_profile import _diagonal_sweep
    from ..obs import tracing_session

    chunk = _shard_chunk(
        context.x.size - context.w + 1, d_lo, context.worker_budget,
        context.chunk_width, context.need_indices,
    )

    def sweep(tracer=None):
        return _diagonal_sweep(
            context.x,
            context.w,
            context.exclusion,
            context.mean,
            context.inv,
            need_indices=context.need_indices,
            abandon=context.abandon,
            chunk=chunk,
            start=d_lo,
            diag_limit=d_hi - d_lo,
            out=out,
            tracer=tracer,
        )

    if not context.traced:
        return sweep(), None, None
    with tracing_session(enabled=True) as (tracer, registry):
        with tracer.span(
            "mpx.shard", index=index, d_lo=d_lo, d_hi=d_hi, chunk=chunk
        ) as span:
            swept = sweep(tracer)
            if swept is None:
                span.set(abandoned=True)
        return swept, tracer.export(), registry.export_state()


# -- process-pool plumbing --------------------------------------------

_POOL_CONTEXT: "_ShardContext | None" = None


def _pool_init(values: np.ndarray, w: int, settings: tuple) -> None:
    """Pool initializer: build the shard context once per worker.

    The series crosses the pipe once per *process* (initargs), not once
    per shard, and the O(n) stats are recomputed locally — bit-equal to
    the parent's because the stats pipeline is deterministic.
    """
    global _POOL_CONTEXT
    stats = SlidingStats(values)
    mean, inv, _constant = stats.kernel_stats(w)
    _POOL_CONTEXT = _ShardContext(stats.shifted, w, mean, inv, *settings)


def _pool_sweep(task: "tuple[int, int, int]"):
    index, d_lo, d_hi = task
    return _sweep_one(_POOL_CONTEXT, index, d_lo, d_hi)


def _merge(best, bestj, shard_best, shard_bestj) -> None:
    """Fold one shard into the running result, earliest diagonal first.

    Strict ``>`` keeps the incumbent on ties; because shards arrive in
    ascending diagonal order, the surviving neighbour index is the one
    the whole-range sweep's first-occurrence rule picks.
    """
    if bestj is None:
        np.maximum(best, shard_best, out=best)
        return
    upd = shard_best > best
    best[upd] = shard_best[upd]
    bestj[upd] = shard_bestj[upd]


def sharded_sweep(
    stats: SlidingStats,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    jobs: int,
    chunk_width: "int | None" = None,
    worker_budget: "int | None" = None,
    abandon: "float | None" = None,
    diag_stop: "int | None" = None,
    traced: bool = False,
) -> ShardOutcome:
    """Sweep every shard of the self-join, in shard order.

    ``stats`` is the series' :class:`~repro.detectors.sliding.SlidingStats`
    and ``mean``/``inv`` its kernel stats for ``w``.  ``jobs`` is the
    worker-process count.  With ``jobs=1`` (or a one-shard plan) the
    shards run in-process into one shared running profile, which is
    checked for early abandonment after every block; pool shards sweep
    into their own arrays and merge.  ``worker_budget`` is the
    *per-worker* scratch cap — the caller divides its process budget
    by ``jobs`` — and ``diag_stop`` restricts the sweep to separations
    below it (the anytime mode's leading-diagonal window).

    The result is bit-identical to one whole-range
    :func:`~repro.detectors.matrix_profile._diagonal_sweep` over the
    same diagonals, for every ``jobs``; see the module docstring.
    """
    from .matrix_profile import _alive_min

    m = stats.n - w + 1
    shards = plan_shards(m, exclusion, diag_stop=diag_stop)
    lead_chunk = _shard_chunk(m, exclusion, worker_budget, chunk_width, need_indices)
    best = np.full(m, -np.inf)
    bestj = np.zeros(m, dtype=np.int64) if need_indices else None
    settings = (
        exclusion, need_indices, chunk_width, worker_budget, abandon, traced
    )
    tasks = [(i, d_lo, d_hi) for i, (d_lo, d_hi) in enumerate(shards)]
    outcomes = []
    if jobs > 1 and len(shards) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(shards)),
            initializer=_pool_init,
            initargs=(stats.values, w, settings),
        ) as pool:
            outcomes = list(pool.map(_pool_sweep, tasks))
        for swept, _records, _state in outcomes:
            if swept is not None:
                _merge(best, bestj, swept[0], swept[1])
    else:
        context = _ShardContext(stats.shifted, w, mean, inv, *settings)
        for task in tasks:
            outcomes.append(_sweep_one(context, *task, out=(best, bestj)))
            if outcomes[-1][0] is None:
                break  # the shared profile saturated: the serial rule
    swept = [outcome[0] for outcome in outcomes]
    workspace = max(
        (done[2] for done in swept if done is not None),
        default=best.nbytes + (0 if bestj is None else bestj.nbytes),
    )
    abandoned = abandon is not None and (
        None in swept or _alive_min(best, exclusion) >= abandon
    )
    exports = [(records, state) for _, records, state in outcomes]
    return ShardOutcome(
        best, bestj, lead_chunk, workspace, abandoned, exports, shards
    )
