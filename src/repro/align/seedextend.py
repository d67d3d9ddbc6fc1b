"""Seed-and-extend pairwise alignment (the per-task kernel).

Treats the shared k-mer as fixed (matching, error-free) between the two
reads and extends the alignment forward and backward from it with X-drop
(paper Figure 1).  One seed is extended per candidate pair, as in the
paper's experiments.

Reverse-orientation candidates are handled by extending against the reverse
complement of read *b*, with the seed position mapped into the flipped
coordinate frame; reported extents for *b* are in that oriented frame with
``reverse=True`` recorded (paper Figure 2: overlaps occur in either relative
orientation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.align.batch import BatchedXDropExtender
from repro.align.scoring import DEFAULT_SCORING, ScoringScheme
from repro.align.xdrop import XDropExtender
from repro.errors import AlignmentError
from repro.genome import alphabet

__all__ = ["Alignment", "SeedExtendAligner"]


@dataclass(frozen=True)
class Alignment:
    """Result of one seed-and-extend pairwise alignment task.

    Extents are half-open: read a's aligned region is ``[begin_a, end_a)``;
    read b's is ``[begin_b, end_b)`` *in the oriented frame* (b's forward
    strand when ``reverse`` is False, b's reverse complement otherwise).
    """

    read_a: int
    read_b: int
    score: int
    begin_a: int
    end_a: int
    begin_b: int
    end_b: int
    reverse: bool
    cells: int
    terminated_early: bool

    @property
    def aligned_length_a(self) -> int:
        return self.end_a - self.begin_a

    def overlap_class(self, len_a: int, len_b: int, slack: int = 50) -> str:
        """Classify the overlap shape (paper Figure 2).

        ``contains`` / ``contained``: one read spans the other;
        ``dovetail``: proper suffix-prefix overlap; ``internal``: the
        alignment ends in the middle of both reads (often a false positive
        or a repeat-induced local match).
        """
        a_at_start = self.begin_a <= slack
        a_at_end = self.end_a >= len_a - slack
        b_at_start = self.begin_b <= slack
        b_at_end = self.end_b >= len_b - slack
        if a_at_start and a_at_end:
            return "contained"
        if b_at_start and b_at_end:
            return "contains"
        if (a_at_end and b_at_start) or (b_at_end and a_at_start):
            return "dovetail"
        return "internal"


@dataclass(frozen=True)
class SeedExtendAligner:
    """X-drop seed-and-extend aligner over code arrays."""

    x_drop: int = 15
    scoring: ScoringScheme = DEFAULT_SCORING

    @cached_property
    def _extender(self) -> XDropExtender:
        """One scalar extender per aligner instance, built on first use."""
        return XDropExtender(x_drop=self.x_drop, scoring=self.scoring)

    @cached_property
    def _batch_extender(self) -> BatchedXDropExtender:
        """One batched wavefront extender per aligner instance."""
        return BatchedXDropExtender(x_drop=self.x_drop, scoring=self.scoring)

    def _validate_and_orient(
        self,
        codes_a: np.ndarray,
        codes_b: np.ndarray,
        pos_a: int,
        pos_b: int,
        k: int,
        reverse: bool,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Seed bounds check + orientation; returns (a, oriented b, pos_b)."""
        codes_a = np.asarray(codes_a, dtype=np.uint8)
        codes_b = np.asarray(codes_b, dtype=np.uint8)
        la, lb = codes_a.size, codes_b.size
        if not (0 <= pos_a and pos_a + k <= la):
            raise AlignmentError(f"seed [{pos_a}, {pos_a + k}) outside read a (len {la})")
        if not (0 <= pos_b and pos_b + k <= lb):
            raise AlignmentError(f"seed [{pos_b}, {pos_b + k}) outside read b (len {lb})")
        if reverse:
            return codes_a, alphabet.reverse_complement(codes_b), lb - (pos_b + k)
        return codes_a, codes_b, pos_b

    def align(
        self,
        codes_a: np.ndarray,
        codes_b: np.ndarray,
        pos_a: int,
        pos_b: int,
        k: int,
        reverse: bool = False,
        read_a: int = -1,
        read_b: int = -1,
    ) -> Alignment:
        """Extend the seed at ``(pos_a, pos_b)`` of length ``k``.

        ``pos_b`` is on b's forward strand; for ``reverse`` candidates it is
        mapped to the reverse-complement frame before extension.
        """
        codes_a, oriented_b, pos_b = self._validate_and_orient(
            codes_a, codes_b, pos_a, pos_b, k, reverse
        )
        extender = self._extender
        right = extender.extend(codes_a[pos_a + k:], oriented_b[pos_b + k:])
        left = extender.extend_left(codes_a[:pos_a], oriented_b[:pos_b])
        return self._assemble(right, left, pos_a, pos_b, k, reverse,
                              read_a, read_b)

    def align_batch(self, pairs) -> list[Alignment]:
        """Align a whole batch of seed-extension tasks in one wavefront pass.

        Each element of ``pairs`` is a tuple of :meth:`align`'s positional
        arguments: ``(codes_a, codes_b, pos_a, pos_b, k)`` optionally
        followed by ``reverse``, ``read_a``, ``read_b``.  Both directional
        extensions of every pair — rightward suffixes and reversed leftward
        prefixes, in either orientation — are packed into one
        :class:`BatchedXDropExtender` call, so the whole batch advances
        behind a single shared antidiagonal counter.

        Returns alignments in input order, bit-identical to calling
        :meth:`align` once per pair.
        """
        specs: list[tuple[int, int, int, bool, int, int]] = []
        jobs: list[tuple[np.ndarray, np.ndarray]] = []
        for pair in pairs:
            codes_a, codes_b, pos_a, pos_b, k, *rest = pair
            reverse = bool(rest[0]) if len(rest) > 0 else False
            read_a = int(rest[1]) if len(rest) > 1 else -1
            read_b = int(rest[2]) if len(rest) > 2 else -1
            codes_a, oriented_b, pos_b = self._validate_and_orient(
                codes_a, codes_b, pos_a, pos_b, k, reverse
            )
            jobs.append((codes_a[pos_a + k:], oriented_b[pos_b + k:]))
            jobs.append((codes_a[:pos_a][::-1], oriented_b[:pos_b][::-1]))
            specs.append((pos_a, pos_b, k, reverse, read_a, read_b))
        extensions = self._batch_extender.extend_batch(jobs)
        return [
            self._assemble(extensions[2 * p], extensions[2 * p + 1],
                           pos_a, pos_b, k, reverse, read_a, read_b)
            for p, (pos_a, pos_b, k, reverse, read_a, read_b)
            in enumerate(specs)
        ]

    def _assemble(self, right, left, pos_a, pos_b, k, reverse,
                  read_a, read_b) -> Alignment:
        """Combine the two directional extensions into one Alignment."""
        score = self.scoring.perfect_score(k) + right.score + left.score
        return Alignment(
            read_a=read_a,
            read_b=read_b,
            score=score,
            begin_a=pos_a - left.length_a,
            end_a=pos_a + k + right.length_a,
            begin_b=pos_b - left.length_b,
            end_b=pos_b + k + right.length_b,
            reverse=reverse,
            cells=right.cells + left.cells,
            terminated_early=right.terminated_early or left.terminated_early,
        )

    def _candidate_args(self, reads, candidate):
        return (
            reads.codes(candidate.read_a),
            reads.codes(candidate.read_b),
            candidate.pos_a,
            candidate.pos_b,
            candidate.k,
            candidate.reverse,
            int(reads.ids[candidate.read_a]),
            int(reads.ids[candidate.read_b]),
        )

    def align_candidate(self, reads, candidate) -> Alignment:
        """Align a :class:`repro.pipeline.tasks.Candidate` over a ReadSet."""
        args = self._candidate_args(reads, candidate)
        return self.align(*args[:5], reverse=args[5],
                          read_a=args[6], read_b=args[7])

    def align_candidates(self, reads, tasks, rows) -> list[Alignment]:
        """Batch-align ``rows`` of a :class:`repro.pipeline.tasks.TaskTable`
        over a ReadSet (one wavefront pass)."""
        return self.align_batch(
            [self._candidate_args(reads, tasks.candidate(i)) for i in rows]
        )
