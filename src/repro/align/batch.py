"""Batched wavefront X-drop: extend many pairs per antidiagonal step.

The scalar kernel (:mod:`repro.align.xdrop`) pays Python/numpy dispatch
overhead per pair per antidiagonal, which dominates wall-clock in the
pure-python reproduction even though the paper's cost model counts only DP
cells (§4.2).  This module amortizes that overhead the way GPU ports of the
kernel do (LOGAN-style batching, PAPERS.md): ``B`` extensions advance in
lockstep behind **one shared antidiagonal counter**, with each step
computing one ``(B_active, W)`` block of cells.

**The shared frame.**  Cell ``(i, j)`` of antidiagonal ``d = i + j`` of a
pair sits at column ``c = i + K - d // 2`` of that pair's row, where ``K``
is a per-pair origin.  In that frame the three DP moves are the same
column shift for every pair — which shift depends only on the parity of
the shared ``d``:

* up ``(i-1, j)`` is column ``c`` of diagonal ``d-1`` when ``d`` is even,
  ``c-1`` when it is odd;
* left ``(i, j-1)`` is column ``c+1`` (even) or ``c`` (odd) of ``d-1``;
* diag ``(i-1, j-1)`` is column ``c`` of diagonal ``d-2``.

Rows are stored back to back, each led by one pad column, so a wavefront
is one contiguous array and up/left/diag are that array read at a flat
offset of -1, 0 or +1: every cell update is a handful of 1-D numpy calls
over the whole batch, with no per-row index arithmetic and no per-row
inner loops.  The pads hold ``-inf`` (they also end each row's left move),
and the sequence codes under a row are one contiguous window of a packed
code array.

The frame follows the alignment diagonal (``c`` moves with ``i - j``), so
an X-drop window drifts across it only as fast as the alignment's indels
walk; a pair whose window reaches an edge is re-centred by moving its
origin ``K`` (a rare shift, not a per-step gather), and ``W`` widens if a
window outgrows it.

Scores are stored shifted by the antidiagonal, ``w = score - gap * d``:
every path to diagonal ``d`` pays ``gap`` per antidiagonal for a gap move
and ``2 * gap`` per two for a substitution, so in ``w`` the gap moves add
nothing and a substitution adds ``s - 2 * gap`` — one add per step fewer.
A pruned cell is exactly the pad value ``_NEG``, never below it.

Per pair the kernel keeps the scalar state — live-window bounds, best
score/position, cell counter — as one column of a stacked state array.
Pairs terminate independently (window death, X-drop kill, or exhaustion)
and finished pairs are compacted out of the active set, so a batch mixing
early-terminating false positives with long true overlaps never pays for
the dead rows.

Results are **bit-identical** to running :class:`~repro.align.xdrop.
XDropExtender` per pair (same scores, extents, cells, antidiagonal counts,
early-termination flags): the cost model and every paper figure consume
those numbers, so the batch is an execution strategy, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.align.scoring import DEFAULT_SCORING, ScoringScheme
from repro.align.xdrop import ExtensionResult, _NEG
from repro.errors import AlignmentError

__all__ = ["BatchedXDropExtender"]

#: Frame width (data columns per row) a batch starts with.  A window is
#: kept ``_MARGIN`` columns clear of each frame edge when it is re-centred;
#: the frame widens in steps of 8 when a live window no longer fits so.
_FRAME0 = 16
_MARGIN = 4

# Rows of the stacked per-pair state (one column per active pair).  All
# positions are in "g" coordinates, g = i + K, so a re-centring that moves
# the origin K shifts every one of them by the same amount.
_FIELDS = 13
(_ROW, _MN, _NLO, _MHI, _K, _ABASE, _BBASE, _BEST, _BEST_G, _BEST_D,
 _CELLS, _WLO, _WHI) = range(_FIELDS)
#: the fields a re-centring by ``shift`` moves by ``+shift`` (origin and
#: g-positions) and by ``-shift`` (code-window bases)
_SHIFT_UP = [_NLO, _MHI, _K, _BEST_G, _WLO, _WHI]
_SHIFT_DOWN = [_ABASE, _BBASE]


def _pack(segments: list[np.ndarray], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate code arrays with ``pad`` filler codes before and after
    each; returns the flat array and each segment's start."""
    sizes = np.array([s.size for s in segments], dtype=np.int64)
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1] + pad, out=starts[1:])
    starts += pad
    flat = np.zeros(int(starts[-1] + sizes[-1]) + pad, dtype=np.uint8)
    for s, seg in zip(starts.tolist(), segments):
        flat[s: s + seg.size] = seg
    return flat, starts


def _caps(pitch: int) -> np.ndarray:
    """Window caps: row ``span * 3P + P - lo`` of the returned ``(·, P)``
    view is ``-_NEG`` on columns ``lo .. lo + span`` and ``_NEG`` elsewhere,
    so ``np.minimum`` with it prunes a row to its window."""
    t = np.arange(3 * pitch)
    span = np.arange(pitch)[:, None]
    inside = (t >= pitch) & (t <= pitch + span)
    return sliding_window_view(np.where(inside, -_NEG, _NEG).ravel(), pitch)


def _shift_rows(buf: np.ndarray, shift: np.ndarray) -> None:
    """Move row ``r``'s data columns (all but the leading pad) right by
    ``shift[r]`` in place, filling with ``_NEG``."""
    pitch = buf.shape[1]
    src = np.arange(1, pitch)[None, :] - shift[:, None]
    inside = (src >= 1) & (src < pitch)
    np.clip(src, 0, pitch - 1, out=src)
    buf[:, 1:] = np.where(inside, np.take_along_axis(buf, src, axis=1), _NEG)


@dataclass(frozen=True)
class BatchedXDropExtender:
    """X-drop extension of a whole batch of pairs, one antidiagonal at a time.

    Same parameters as :class:`~repro.align.xdrop.XDropExtender`; one
    instance serves any number of :meth:`extend_batch` calls.
    """

    x_drop: int = 15
    scoring: ScoringScheme = DEFAULT_SCORING

    def __post_init__(self) -> None:
        if self.x_drop < 0:
            raise AlignmentError("x_drop must be nonnegative")

    def extend_batch(
        self, pairs: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[ExtensionResult]:
        """Extend every ``(a, b)`` pair rightward from position 0.

        Inputs follow :meth:`XDropExtender.extend`: suffix code arrays
        beyond the seed (or reversed prefixes for leftward extensions).
        Returns one :class:`ExtensionResult` per pair, in input order.
        """
        results: list[ExtensionResult | None] = [None] * len(pairs)
        seqs_a: list[np.ndarray] = []
        seqs_b: list[np.ndarray] = []
        orig_ids: list[int] = []
        for p, (a, b) in enumerate(pairs):
            a = np.asarray(a, dtype=np.uint8)
            b = np.asarray(b, dtype=np.uint8)
            if a.size == 0 or b.size == 0:
                # As in the scalar kernel: only pure-gap extensions exist
                # and they score negatively, so the empty extension wins.
                results[p] = ExtensionResult(0, 0, 0, 0, 0, False)
            else:
                orig_ids.append(p)
                seqs_a.append(a)
                seqs_b.append(b)
        if not orig_ids:
            return results  # type: ignore[return-value]

        scoring = self.scoring
        table = scoring.substitution_table
        ncode = table.shape[1]
        gap = int(scoring.gap)
        x = int(self.x_drop)

        k0 = len(orig_ids)
        m = np.array([a.size for a in seqs_a], dtype=np.int64)
        n = np.array([b.size for b in seqs_b], dtype=np.int64)
        table_w = (table - 2 * gap).ravel()
        # b is packed reversed, so the codes under a frame row run forward
        # in both sequences.
        seqs_b = [b[::-1] for b in seqs_b]

        W = _FRAME0
        st = np.zeros((_FIELDS, k0), dtype=np.int64)
        st[_ROW] = np.arange(k0)
        st[_MN] = m + n
        st[_K] = W // 2
        st[_NLO] = st[_K] - n
        st[_MHI] = st[_K] + m
        st[_WLO] = st[_BEST_G] = st[_K]   # best so far: S(0,0) = 0
        st[_WHI] = st[_K] + 1             # window of diagonal 1: i in [0, 1]
        # Wavefront buffers: one row per pair, pitch W + 1 (the pad column
        # first), plus a trailing all-pad row that ends the last pair's
        # left move.  Diagonal 0 holds only S(0,0) = 0, at column K;
        # diagonal -1 is empty.
        prev = np.full((k0 + 1, W + 1), _NEG, dtype=np.int64)
        prev[:k0, W // 2 + 1] = 0
        prev2 = np.full_like(prev, _NEG)
        free = np.full_like(prev, _NEG)
        rows = np.arange(k0)

        def reframe():
            """Code windows and caps for pitch W + 1; the code pads keep
            every frame row inside the packed arrays.

            Cell (i, j) scores a[i-1] against b[j-1]: a[i-1] sits at
            a_off + i - 1 and b[j-1] at b_off + n - j.  Row i = 0 or j = 0
            reads a pad code, harmlessly: its diag move starts outside the
            matrix.  a codes are pre-scaled by ``ncode`` so a code pair is
            one add away from its table index.
            """
            a_flat, a_off = _pack(seqs_a, W + 1)
            a_flat *= np.uint8(ncode)
            b_flat, b_off = _pack(seqs_b, W + 1)
            # a row's window starts at its pad column, c = -1
            return (sliding_window_view(a_flat, W + 1), a_off - 2,
                    sliding_window_view(b_flat, W + 1), b_off + n - 1,
                    _caps(W + 1))

        a_win, a_base0, b_win, b_base0, caps = reframe()
        st[_ABASE] = a_base0 - st[_K]
        st[_BBASE] = b_base0 - st[_K]

        # Finished pairs' state columns, with the diagonal d they ended at
        # and whether X-drop killed d (1) or the window closed before it.
        ended: list[tuple[np.ndarray, int, int]] = []

        d = 0
        while True:
            d += 1
            hk = d >> 1
            # Window of diagonal d in g: the live window of d-1 clipped to
            # the matrix (i <= m, j <= n; i >= 0 and j >= 0 already hold).
            lo = np.maximum(st[_WLO], st[_NLO] + d)
            hi = np.minimum(st[_WHI], st[_MHI])
            done = lo > hi
            if done.any():
                # Natural exhaustion (d > m+n) or a dead window.
                ended.append((st[:, done], d, 0))
                keep = ~done
                st, lo, hi = st[:, keep], lo[keep], hi[keep]
                if not st.shape[1]:
                    break
                keep = np.append(keep, True)   # the trailing pad row
                prev, prev2 = prev[keep], prev2[keep]
                free = free[:st.shape[1] + 1]
                free[-1] = _NEG
                rows = rows[:st.shape[1]]
            span = hi - lo
            st[_CELLS] += span

            codes = a_win[st[_ABASE] + hk]
            codes += b_win[st[_BBASE] + (hk - d)]
            diag = table_w.take(codes)
            diag += prev2[:-1]
            size = diag.size
            flat_prev, flat_cur = prev.reshape(-1), free.reshape(-1)
            if d & 1:   # up = c - 1, left = c
                np.maximum(flat_prev[:size - 1], flat_prev[1:size],
                           out=flat_cur[1:size])
            else:       # up = c, left = c + 1
                np.maximum(flat_prev[:size], flat_prev[1:size + 1],
                           out=flat_cur[:size])
            cur = free[:-1]
            np.maximum(cur, diag, out=cur)
            # Cells outside [lo, hi], and the pads, are not part of d.
            np.minimum(cur, caps[span * (3 * W + 3) + ((W + hk) - lo)],
                       out=cur)

            gd = gap * d
            karg = cur.argmax(axis=1)
            cmax = cur[rows, karg]
            improved = cmax > st[_BEST] - gd
            if improved.any():
                np.copyto(st[_BEST], cmax + gd, where=improved)
                np.copyto(st[_BEST_G], karg + (hk - 1), where=improved)
                np.copyto(st[_BEST_D], d, where=improved)
            thr = st[_BEST] - (x + gd)

            has_live = cmax >= thr
            if has_live.all():
                cur_buf, free = free, prev2
            else:
                # X-drop killed the whole window.
                ended.append((st[:, ~has_live], d, 1))
                st, thr = st[:, has_live], thr[has_live]
                if not st.shape[1]:
                    break
                keep = np.append(has_live, True)
                prev, cur_buf = prev[keep], free[keep]
                free = prev2[:st.shape[1] + 1]
                free[-1] = _NEG
                rows = rows[:st.shape[1]]
                cur = cur_buf[:-1]

            live = cur >= thr[:, None]
            first = live.argmax(axis=1)
            rev = live[:, ::-1].argmax(axis=1)
            np.add(first, hk - 1, out=st[_WLO])
            np.subtract(W + hk, rev, out=st[_WHI])
            prev2, prev = prev, cur_buf

            # In data columns (buffer column - 1), diagonal d+1's window
            # starts no left of first - 2 and ends no right of W - rev;
            # re-centre rows before it would leave [0, W).
            if first.min() < 2 or rev.min() < 1:
                width = W + 1 - rev - first
                need = int(width.max()) + 2 * _MARGIN
                grow = need > W
                if grow:
                    wider = -(-need // 8) * 8
                    prev, prev2 = (
                        np.pad(buf, ((0, 0), (0, wider - W)),
                               constant_values=_NEG)
                        for buf in (prev, prev2))
                    free = np.full_like(prev, _NEG)
                    W = wider
                    a_win, a_base0, b_win, b_base0, caps = reframe()
                shift = (W - width) // 2 + 1 - first
                _shift_rows(prev[:-1], shift)
                _shift_rows(prev2[:-1], shift)
                st[_SHIFT_UP] += shift
                if grow:
                    st[_ABASE] = a_base0[st[_ROW]] - st[_K]
                    st[_BBASE] = b_base0[st[_ROW]] - st[_K]
                else:
                    st[_SHIFT_DOWN] -= shift

        # A pair that ended at diagonal d reports d - 1 antidiagonals and
        # computed d - 1 + killed of them; as in the scalar kernel it
        # stopped early iff that is fewer than m + n.
        st = np.concatenate([cols for cols, _, _ in ended], axis=1)
        counts = [cols.shape[1] for cols, _, _ in ended]
        anti = np.repeat([end - 1 for _, end, _ in ended], counts)
        computed = anti + np.repeat([k for _, _, k in ended], counts)
        length_a = st[_BEST_G] - st[_K]
        fields = zip(st[_ROW].tolist(), st[_BEST].tolist(), length_a.tolist(),
                     (st[_BEST_D] - length_a).tolist(),
                     (st[_CELLS] + computed).tolist(), anti.tolist(),
                     (st[_MN] > computed).tolist())
        for row, score, ext_a, ext_b, cells, antidiagonals, early in fields:
            results[orig_ids[row]] = ExtensionResult(
                score=score, length_a=ext_a, length_b=ext_b, cells=cells,
                antidiagonals=antidiagonals, terminated_early=early)
        return results  # type: ignore[return-value]
