"""Brute-force semantics, used as the referee for the optimized engines.

Evaluation follows the satisfaction clauses of HS literally: an existential
modality enumerates the related tracks up to a configurable depth bound.
Each call compiles the normalized formula once into one evaluator per
subformula; a modal one memoizes per track for started-by, finishes and
their inverses, and per endpoint state for meets and met-by.  As started-by
and finishes are transitive, ``<B>f`` (``<E>f``) holds on a track iff ``f``
or ``<B>f`` (``<E>f``) holds on its longest proper prefix (suffix).
On meets/met-by/started-by fragment input the result is exact once the bound
reaches the representative length bound; below it the result is sound only
up to the bound and a warning is emitted.  This module deliberately shares
nothing with the descriptor or unravelling machinery.
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
    """One call's evaluators, one per distinct subformula.  Each holds its
    children and memo, never itself or the oracle: no reference cycle."""

    def __init__(self, structure: KripkeStructure, config: OracleConfig):
        self.k = structure
        self.depth = config.depth_bound
        self.compiled: dict[fm.Formula, Callable] = {}

    def eval(self, states: tuple[int, ...], f: fm.Formula) -> bool:
        return self.compile(f)(states)

    def compile(self, f: fm.Formula) -> Callable[[tuple[int, ...]], bool]:
        ev = self.compiled.get(f)
        if ev is not None:
            return ev
        if isinstance(f, (fm.Top, fm.Bottom)):
            value = isinstance(f, fm.Top)
            ev = lambda states: value
        elif isinstance(f, fm.Prop):
            # letters outside the alphabet hold nowhere
            mask = self.k.prop_mask(f.name) if f.name in self.k.propositions else 0
            ev = frozenset(
                s for s in range(self.k.n_states) if self.k.label_mask(s) & mask
            ).issuperset
        elif isinstance(f, fm.Not):
            child = self.compile(f.child)
            ev = lambda states: not child(states)
        elif isinstance(f, fm.And):
            left, right = self.compile(f.left), self.compile(f.right)
            ev = lambda states: left(states) and right(states)
        elif isinstance(f, fm.Or):
            left, right = self.compile(f.left), self.compile(f.right)
            ev = lambda states: left(states) or right(states)
        elif isinstance(f, (fm.Diamond, fm.Box)):
            want = isinstance(f, fm.Diamond)
            exists = _exists(self.k, self.depth, f.mod, self.compile(f.child), want)
            ev = exists if want else lambda states: not exists(states)
        else:
            raise FragmentError("the oracle needs a normalized formula")
        self.compiled[f] = ev
        return ev


def _exists(
    k: KripkeStructure, depth: int, mod: fm.Modality, child: Callable, want: bool
) -> Callable[[tuple[int, ...]], bool]:
    """Whether some track related to the given one by ``mod`` evaluates
    ``child`` to ``want``, memoized per endpoint state for meets and met-by
    and per track otherwise."""
    M = fm.Modality
    memo: dict = {}
    if mod is M.B or mod is M.E:
        cut = slice(None, -1) if mod is M.B else slice(1, None)

        def transitive(states: tuple[int, ...]) -> bool:
            # walk down the prefix (suffix) chain to a memo hit, then fill in
            passed = []
            found = memo.get(states)
            while found is None:
                passed.append(states)
                states = states[cut]
                found = len(states) > 1 and (child(states) == want or memo.get(states))
            for t in passed:
                memo[t] = found
            return found

        return transitive
    if mod is M.A:
        related = lambda s: (t.states for t in all_tracks(k, s[-1], depth))
    elif mod is M.ABAR:
        related = lambda s: (t.states for t in _tracks_into(k, s[0], depth))
    elif mod is M.BBAR:
        related = lambda s: (s + ext for ext in _chains_from(k, s[-1], depth - 1))
    elif mod is M.EBAR:
        related = lambda s: (ext + s for ext in _chains_into(k, s[0], depth - 1))
    else:
        raise FragmentError("the oracle needs a normalized formula")
    at = {M.A: -1, M.ABAR: 0}.get(mod)

    def enumerated(states: tuple[int, ...]) -> bool:
        key = states if at is None else states[at]
        found = memo.get(key)
        if found is None:
            found = memo[key] = any(child(t) == want for t in related(states))
        return found

    return enumerated


def _compile(
    structure: KripkeStructure, f: fm.Formula, config: OracleConfig
) -> Callable[[tuple[int, ...]], bool]:
    """One call's evaluator of ``f``, after warning when the depth bound is
    below the exactness threshold of a fragment formula."""
    g = fm.normalize(f)
    if fm.modalities(g) <= fm.REPRESENTATIVE_MODALITIES:
        needed = tau(structure.n_states, fm.nest_b(g))
        if config.depth_bound < needed:
            warnings.warn(
                f"depth bound {config.depth_bound} is below the exactness "
                f"threshold {needed}; the verdict is sound only up to the bound",
                BoundWarning,
                stacklevel=3,
            )
    return _Oracle(structure, config).compile(g)


def oracle_eval(
    structure: KripkeStructure,
    track: Track,
    f: fm.Formula,
    config: OracleConfig | None = None,
) -> bool:
    """Evaluate a formula on a track by literal enumeration."""
    structure.track(track.states)
    return _compile(structure, f, config or OracleConfig())(track.states)


def oracle_mod_check(
    structure: KripkeStructure, f: fm.Formula, config: OracleConfig | None = None
) -> bool:
    """Structure-level check: the conjunction over all initial tracks up to
    the depth bound."""
    config = config or OracleConfig()
    holds = _compile(structure, f, config)
    return all(
        holds(t.states)
        for t in all_tracks(structure, structure.initial, config.depth_bound)
    )


def oracle_find_counterexample(
    structure: KripkeStructure, f: fm.Formula, config: OracleConfig | None = None
) -> Track | None:
    """First initial track (in enumeration order) falsifying the formula,
    or None when the bounded check holds."""
    config = config or OracleConfig()
    holds = _compile(structure, f, config)
    for t in all_tracks(structure, structure.initial, config.depth_bound):
        if not holds(t.states):
            return t
    return None
