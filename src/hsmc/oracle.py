"""Brute-force semantics, used as the referee for the optimized engines.

Evaluation follows the satisfaction clauses literally: existential
modalities enumerate candidate witness tracks (or extensions) up to a
configurable depth bound.  On meets/met-by/started-by fragment input the
result is exact once the bound reaches the representative length bound;
below that the result is sound only up to the bound and a warning is
emitted.  This module deliberately shares nothing with the descriptor or
unravelling machinery.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

from . import formula as fm
from .descriptor import tau
from .errors import BoundWarning, FragmentError
from .kripke import KripkeStructure, Track


@dataclass(frozen=True)
class OracleConfig:
    """depth_bound caps the length of enumerated witness tracks and the
    number of states appended or prepended when extending a track."""

    depth_bound: int = 12

    def __post_init__(self) -> None:
        if self.depth_bound < 2:
            raise ValueError("depth_bound must be at least 2")


def _walk(
    neighbours: Callable[[int], tuple[int, ...]],
    anchor: int,
    path: list[int],
    max_states: int,
    backward: bool,
) -> Iterator[tuple[int, ...]]:
    """Depth-first walk from ``anchor`` along ``neighbours`` in declaration
    order.  ``path`` starts as ``[anchor]`` or ``[]`` and grows by one state
    per step; each version of it up to ``max_states`` states is yielded
    before its extensions, reversed when walking backward."""
    iters = [iter(neighbours(anchor))]
    while iters:
        step = next(iters[-1], None)
        if step is None:
            iters.pop()
            if iters:
                path.pop()
            continue
        if len(path) >= max_states:
            continue
        path.append(step)
        yield tuple(reversed(path)) if backward else tuple(path)
        iters.append(iter(neighbours(step)))


def all_tracks(
    structure: KripkeStructure, start: int, max_length: int
) -> Iterator[Track]:
    """Every track from ``start`` of length 2..max_length, in depth-first
    declaration order."""
    return map(Track, _walk(structure.successors, start, [start], max_length, False))


def _tracks_into(
    structure: KripkeStructure, end: int, max_length: int
) -> Iterator[Track]:
    return map(Track, _walk(structure.predecessors, end, [end], max_length, True))


def _chains_from(
    structure: KripkeStructure, anchor: int, max_states: int
) -> Iterator[tuple[int, ...]]:
    """Nonempty state sequences of length <= max_states continuing ``anchor``
    along edges (the appended part of a right extension)."""
    return _walk(structure.successors, anchor, [], max_states, False)


def _chains_into(
    structure: KripkeStructure, anchor: int, max_states: int
) -> Iterator[tuple[int, ...]]:
    return _walk(structure.predecessors, anchor, [], max_states, True)


class _Oracle:
    def __init__(self, structure: KripkeStructure, config: OracleConfig):
        self.k = structure
        self.depth = config.depth_bound
        self.prop_masks = {p: structure.prop_mask(p) for p in structure.propositions}
        self.track_memo: dict[tuple[tuple[int, ...], fm.Formula], bool] = {}
        self.from_memo: dict[tuple[int, fm.Formula, bool], bool] = {}
        self.into_memo: dict[tuple[int, fm.Formula, bool], bool] = {}

    def eval(self, states: tuple[int, ...], f: fm.Formula) -> bool:
        key = (states, f)
        cached = self.track_memo.get(key)
        if cached is not None:
            return cached
        result = self._eval(states, f)
        self.track_memo[key] = result
        return result

    def _eval(self, states: tuple[int, ...], f: fm.Formula) -> bool:
        if isinstance(f, fm.Top):
            return True
        if isinstance(f, fm.Bottom):
            return False
        if isinstance(f, fm.Prop):
            mask = self.prop_masks.get(f.name)
            if mask is None:
                return False  # letters outside the alphabet hold nowhere
            return all(self.k.label_mask(s) & mask for s in states)
        if isinstance(f, fm.Not):
            return not self.eval(states, f.child)
        if isinstance(f, fm.And):
            return self.eval(states, f.left) and self.eval(states, f.right)
        if isinstance(f, fm.Or):
            return self.eval(states, f.left) or self.eval(states, f.right)
        if isinstance(f, fm.Diamond):
            return self._modal(states, f.mod, f.child, want=True)
        if isinstance(f, fm.Box):
            return not self._modal(states, f.mod, f.child, want=False)
        raise FragmentError("the oracle needs a normalized formula")

    def _modal(
        self, states: tuple[int, ...], mod: fm.Modality, child: fm.Formula, want: bool
    ) -> bool:
        """Whether some related track evaluates ``child`` to ``want``."""
        M = fm.Modality
        if mod is M.A:
            return self._exists_from(states[-1], child, want)
        if mod is M.ABAR:
            return self._exists_into(states[0], child, want)
        if mod is M.B:
            return any(
                self.eval(states[:i], child) == want for i in range(2, len(states))
            )
        if mod is M.E:
            return any(
                self.eval(states[i:], child) == want
                for i in range(1, len(states) - 1)
            )
        if mod is M.BBAR:
            return any(
                self.eval(states + ext, child) == want
                for ext in _chains_from(self.k, states[-1], self.depth - 1)
            )
        if mod is M.EBAR:
            return any(
                self.eval(ext + states, child) == want
                for ext in _chains_into(self.k, states[0], self.depth - 1)
            )
        raise FragmentError("the oracle needs a normalized formula")

    def _exists_from(self, state: int, child: fm.Formula, want: bool) -> bool:
        key = (state, child, want)
        cached = self.from_memo.get(key)
        if cached is None:
            cached = any(
                self.eval(t.states, child) == want
                for t in all_tracks(self.k, state, self.depth)
            )
            self.from_memo[key] = cached
        return cached

    def _exists_into(self, state: int, child: fm.Formula, want: bool) -> bool:
        key = (state, child, want)
        cached = self.into_memo.get(key)
        if cached is None:
            cached = any(
                self.eval(t.states, child) == want
                for t in _tracks_into(self.k, state, self.depth)
            )
            self.into_memo[key] = cached
        return cached


def _warn_if_bound_insufficient(
    structure: KripkeStructure, f: fm.Formula, config: OracleConfig
) -> None:
    if fm.modalities(f) <= fm.REPRESENTATIVE_MODALITIES:
        needed = tau(structure.n_states, fm.nest_b(f))
        if config.depth_bound < needed:
            warnings.warn(
                f"depth bound {config.depth_bound} is below the exactness "
                f"threshold {needed}; the verdict is sound only up to the bound",
                BoundWarning,
                stacklevel=3,
            )


def oracle_eval(
    structure: KripkeStructure,
    track: Track,
    f: fm.Formula,
    config: OracleConfig | None = None,
) -> bool:
    """Evaluate a formula on a track by literal recursive enumeration."""
    structure.track(track.states)
    config = config or OracleConfig()
    g = fm.normalize(f)
    _warn_if_bound_insufficient(structure, g, config)
    return _Oracle(structure, config).eval(track.states, g)


def oracle_mod_check(
    structure: KripkeStructure, f: fm.Formula, config: OracleConfig | None = None
) -> bool:
    """Structure-level check: the conjunction over all initial tracks up to
    the depth bound."""
    config = config or OracleConfig()
    g = fm.normalize(f)
    _warn_if_bound_insufficient(structure, g, config)
    oracle = _Oracle(structure, config)
    return all(
        oracle.eval(t.states, g)
        for t in all_tracks(structure, structure.initial, config.depth_bound)
    )


def oracle_find_counterexample(
    structure: KripkeStructure, f: fm.Formula, config: OracleConfig | None = None
) -> Track | None:
    """First initial track (in enumeration order) falsifying the formula,
    or None when the bounded check holds."""
    config = config or OracleConfig()
    g = fm.normalize(f)
    _warn_if_bound_insufficient(structure, g, config)
    oracle = _Oracle(structure, config)
    for t in all_tracks(structure, structure.initial, config.depth_bound):
        if not oracle.eval(t.states, g):
            return t
    return None
