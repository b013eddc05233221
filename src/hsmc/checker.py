"""Structure- and track-level checking over track representatives.

A formula without started-by is true on a track iff it is true on the
track's class (entry state, final state, joint label mask), and
``conp.Elements`` decides such subformulas on the class.  At
started-by nesting depth 0, ``mod_check`` therefore checks the initial
state's witnessed classes and walks no track.  At depth k >= 1 it walks
the representatives of the initial tracks; started-by descends to proper
prefixes with one less nesting budget, and meets/met-by/inverse clauses
over a child with started-by consult fresh unravellings.  Sound and
complete for formulas built from the meets, met-by, started-by and the two
inverse modalities, because every witness track is represented by an
emitted track with the same depth-k descriptor.
"""

from __future__ import annotations

from typing import NamedTuple

from . import formula as fm
from .conp import Elements, element_state
from .descriptor import descriptor_element, tau
from .errors import FragmentError, ResourceLimitError
from .kripke import KripkeStructure, Track
from .unravel import Direction, unravel


class Verdict(NamedTuple):
    holds: bool
    counterexample: Track | None = None


def in_fragment(f: fm.Formula) -> bool:
    # anything built from meets/met-by/started-by and the two inverses works
    # here; finishes must go to the counterexample or oracle engines
    return fm.modalities(f) <= fm.REPRESENTATIVE_MODALITIES


def _require_fragment(f: fm.Formula, engine: str = "representative") -> None:
    """Raise exactly when ``in_fragment`` fails, naming ``engine``."""
    extra = fm.modalities(f) - fm.REPRESENTATIVE_MODALITIES
    if extra:
        names = ", ".join(sorted(m.value for m in extra))
        raise FragmentError(f"the {engine} engine cannot handle <{names}> formulas")


class _Checker:
    """One walk over the representatives of one structure.

    A subformula without started-by is decided by the session's
    ``conp.Elements`` on the track's class.  Only subformulas with
    started-by look at the track itself; their results are cached per
    (track, subformula, budget), and the meets/met-by ones per (endpoint,
    subformula, budget).
    """

    def __init__(self, structure: KripkeStructure):
        self.k = structure
        self.elements = Elements(structure)
        self.endpoint_memo: dict[tuple, bool] = {}
        self.track_memo: dict[tuple, bool] = {}

    def check(self, budget: int, f: fm.Formula, track: Track) -> bool:
        if fm.Modality.B not in fm.modalities(f):
            # truth only depends on the track's class
            return self.elements.check(f, element_state(self.k, descriptor_element(track)))
        key = (track.states, f, budget)
        cached = self.track_memo.get(key)
        if cached is not None:
            return cached
        result = self._check(budget, f, track)
        self.track_memo[key] = result
        return result

    def _check(self, budget: int, f: fm.Formula, track: Track) -> bool:
        # f contains started-by, so it is a connective or a modality
        if isinstance(f, fm.Not):
            return not self.check(budget, f.child, track)
        if isinstance(f, fm.And):
            return self.check(budget, f.left, track) and self.check(
                budget, f.right, track
            )
        if isinstance(f, fm.Or):
            return self.check(budget, f.left, track) or self.check(
                budget, f.right, track
            )
        if isinstance(f, (fm.Diamond, fm.Box)):
            return self._modal(budget, f, track)
        raise FragmentError("the checker needs a normalized formula")

    def _modal(self, budget: int, f: fm.Diamond | fm.Box, track: Track) -> bool:
        M = fm.Modality
        want = isinstance(f, fm.Diamond)
        child = f.child
        if f.mod is M.A:
            return want == self._anchored(
                child, track.lst, Direction.FORWARD, budget, want
            )
        if f.mod is M.ABAR:
            return want == self._anchored(
                child, track.fst, Direction.BACKWARD, budget, want
            )
        if f.mod is M.B:
            found = any(
                self.check(budget - 1, child, p) == want for p in track.prefixes()
            )
            return want == found
        if f.mod is M.BBAR:
            found = self._extended(child, track, budget, forward=True, want=want)
            return want == found
        if f.mod is M.EBAR:
            found = self._extended(child, track, budget, forward=False, want=want)
            return want == found
        raise FragmentError(
            f"the representative engine cannot handle <{f.mod.value}> formulas"
        )

    def _anchored(
        self,
        child: fm.Formula,
        state: int,
        direction: Direction,
        budget: int,
        want: bool,
    ) -> bool:
        """Existence of a track from/to ``state`` where ``child`` evaluates
        to ``want``."""
        key = (state, child, direction, budget, want)
        cached = self.endpoint_memo.get(key)
        if cached is not None:
            return cached
        # the child contains started-by (else ``check`` took the element
        # path), so its truth depends on more than the element
        result = any(
            self.check(budget, child, t) == want
            for t in unravel(self.k, state, budget, direction)
        )
        self.endpoint_memo[key] = result
        return result

    def _extended(
        self, child: fm.Formula, track: Track, budget: int, forward: bool, want: bool
    ) -> bool:
        """Existence of an extension of ``track`` (to the right when forward,
        else to the left) on which ``child`` evaluates to ``want``.  The
        single-state extension is tried before each unravelled continuation."""
        if forward:
            neighbours = self.k.successors(track.lst)
        else:
            neighbours = self.k.predecessors(track.fst)
        for v in neighbours:
            if forward:
                one = Track(track.states + (v,))
            else:
                one = Track((v,) + track.states)
            if self.check(budget, child, one) == want:
                return True
            direction = Direction.FORWARD if forward else Direction.BACKWARD
            for ext in unravel(self.k, v, budget, direction):
                whole = (
                    Track(track.states + ext.states)
                    if forward
                    else Track(ext.states + track.states)
                )
                if self.check(budget, child, whole) == want:
                    return True
        return False


def check(
    structure: KripkeStructure, budget: int | None, f: fm.Formula, track: Track
) -> bool:
    """Whether the track satisfies the formula; ``budget`` must be at least
    the formula's started-by nesting depth, which None stands for."""
    structure.track(track.states)
    g = fm.normalize(f)
    _require_fragment(g)
    depth = fm.nest_b(g)
    if budget is None:
        budget = depth
    elif depth > budget:
        raise ValueError("nesting budget below the formula's nesting depth")
    return _Checker(structure).check(budget, g, track)


def mod_check(
    structure: KripkeStructure, f: fm.Formula, *, max_tau: int | None = None
) -> Verdict:
    """Check the formula against every initial track of the structure.

    At started-by depth 0 the initial state's witnessed classes are checked
    in breadth-first order, and a violation comes with a shortest violating
    initial track, as in ``automaton.mod_check``.  At depth 1 and
    more the initial representatives are walked, and a violation comes with
    the first falsifying one.  ``max_tau`` refuses runs whose representative
    length bound exceeds the given ceiling; depth-0 runs walk no stream and
    are never refused.
    """
    g = fm.normalize(f)
    _require_fragment(g)
    depth = fm.nest_b(g)
    if depth == 0:
        violation = Elements(structure).first_violation(g)
        return Verdict(violation is None, violation)
    bound = tau(structure.n_states, depth)
    if max_tau is not None and bound > max_tau:
        raise ResourceLimitError(
            f"representative length bound {bound} exceeds the ceiling {max_tau}"
        )
    checker = _Checker(structure)
    for rep in unravel(structure, structure.initial, depth, Direction.FORWARD):
        if not checker.check(depth, g, rep):
            return Verdict(False, rep)
    return Verdict(True)
