"""Bounded unravelling of a structure into track representatives.

The forward mode walks the unravelling from a state in declaration order and
prunes a branch as soon as the newest descriptor element is
k-indistinguishable from one of its earlier occurrences (for depth 0: as
soon as any descriptor element repeats).  What survives is exactly the set
of tracks whose descriptor sequences are free of k-indistinguishable pairs;
each witnessed depth-k descriptor keeps at least one such representative, of
length at most tau(|W|, k).

The backward mode enumerates tracks ending at a state by walking transposed
edges, re-deriving indistinguishability left to right for each candidate.
Prepending states preserves any existing indistinguishable pair (the entry
state changes uniformly and the internal sets all grow by the same states),
so a branch whose current candidate already has a pair can be cut off
without losing any representative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator

from .descriptor import tau
from .errors import ModelError
from .kripke import KripkeStructure, Track


class Direction(enum.Enum):
    FORWARD = "forw"
    BACKWARD = "backw"


@dataclass(frozen=True)
class UnravelRequest:
    structure: KripkeStructure
    start: int
    depth: int
    direction: Direction

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.structure.n_states:
            raise ModelError(f"state index {self.start} out of range")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")

    def length_limit(self) -> int:
        n = self.structure.n_states
        return 2 + n * n if self.depth == 0 else tau(n, self.depth)

    def tracks(self) -> Iterator[Track]:
        if self.direction is Direction.FORWARD:
            neighbours = self.structure.successors
            admission: _Detector | _Prepender = _Detector(self.depth, self.start)
        else:
            neighbours = self.structure.predecessors
            admission = _Prepender(self.depth, self.start)
        return _walk(neighbours, self.start, self.length_limit(), admission)

    def emits(self, track: Track) -> bool:
        """Whether the stream would emit this exact track, decided by
        replaying the stream's own admission logic along it."""
        if self.direction is Direction.FORWARD:
            if track.fst != self.start:
                return False
        elif track.lst != self.start:
            return False
        for a, b in zip(track.states, track.states[1:]):
            if not self.structure.has_edge(a, b):
                return False
        if len(track) > self.length_limit():
            return False
        return _admissible(track.states, self.depth)


def unravel(
    structure: KripkeStructure, start: int, depth: int, direction: Direction
) -> Iterator[Track]:
    """Stream the track representatives from (forward) or to (backward) a
    state.  Lazy and deterministic: depth-first, successors in declaration
    order, each track yielded before its extensions."""
    return UnravelRequest(structure, start, depth, direction).tracks()


class _Detector:
    """Incremental detection of the pruning condition along a growing track.

    It keeps, per run of Type-2 elements, the array index each element last
    reached in the scan; a new occurrence of an element at index t is
    exactly (t+1)-indistinguishable from its previous one, and every element
    sitting above the new index is pulled down to it.  A new occurrence is
    refused when t reaches the depth.  The rule holds at depth 0 too: every
    element enters a run at index -1 and a repeat reaches index 0, so
    exactly the repeated elements are refused (only Type-2 elements can
    repeat, and only within their run).
    """

    def __init__(self, depth: int, root: int):
        self.depth = depth
        self.states = [root]
        self.masks: list[int] = []  # internal-state mask per sequence position
        self.run: dict[int, int] | None = None  # v_fin -> array index
        self.journal: list[list[tuple]] = []

    def try_push(self, state: int) -> bool:
        """Extend the track by one state; refuse (changing nothing) when the
        new descriptor element closes a k-indistinguishable pair."""
        mask = (
            0
            if not self.masks
            else self.masks[-1] | (1 << self.states[-1])
        )
        ops: list[tuple] = []
        if not mask >> state & 1:  # a Type-1 element ends the run
            if self.run is not None:
                ops.append(("run", self.run))
                self.run = None
        elif self.run is None:
            ops.append(("run", None))
            self.run = {state: -1}
        else:
            old = self.run.get(state)
            z = -1 if old is None else old + 1
            if z >= self.depth:
                return False
            for fin, b in self.run.items():
                if b > z:
                    ops.append(("bucket", fin, b))
                    self.run[fin] = z
            ops.append(("bucket", state, old))
            self.run[state] = z
        self.states.append(state)
        self.masks.append(mask)
        self.journal.append(ops)
        return True

    def track(self) -> Track:
        return Track(tuple(self.states))

    def pop(self) -> None:
        self.states.pop()
        self.masks.pop()
        for op in reversed(self.journal.pop()):
            if op[0] == "run":
                self.run = op[1]
            else:
                _, fin, old = op
                if old is None:
                    del self.run[fin]  # type: ignore[index]
                else:
                    self.run[fin] = old  # type: ignore[index]


def _admissible(states: tuple[int, ...], depth: int) -> bool:
    det = _Detector(depth, states[0])
    return all(det.try_push(s) for s in states[1:])


class _Prepender:
    """Backward admission: each prepended state re-derives the pruning
    condition left to right over the whole candidate; a refused candidate
    cuts off its branch (see the module docstring for why that is safe)."""

    def __init__(self, depth: int, end: int):
        self.depth = depth
        self.states: tuple[int, ...] = (end,)

    def try_push(self, state: int) -> bool:
        candidate = (state, *self.states)
        if not _admissible(candidate, self.depth):
            return False
        self.states = candidate
        return True

    def pop(self) -> None:
        self.states = self.states[1:]

    def track(self) -> Track:
        return Track(self.states)


def _walk(
    neighbours: Callable[[int], tuple[int, ...]],
    start: int,
    limit: int,
    admission: _Detector | _Prepender,
) -> Iterator[Track]:
    """Depth-first walk from ``start`` along ``neighbours`` in declaration
    order, yielding each admitted track before its extensions.  The track
    on the walk has ``len(iters)`` states."""
    iters = [iter(neighbours(start))]
    while iters:
        step = next(iters[-1], None)
        if step is None:
            iters.pop()
            if iters:
                admission.pop()
            continue
        if len(iters) >= limit:
            continue
        if not admission.try_push(step):
            continue
        yield admission.track()
        iters.append(iter(neighbours(step)))
