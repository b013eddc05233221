"""Structure- and track-level checking over track representatives.

``mod_check`` walks the representatives of the initial tracks and hands each
one to ``check``, which recurses over the formula: meets/met-by clauses
consult fresh unravellings anchored at the track's endpoints, started-by
descends to proper prefixes with one less nesting budget, and the inverse
started-by/finishes clauses test single-state extensions followed by
unravelled continuations.  Sound and complete for formulas built from the
meets, met-by, started-by and the two inverse modalities, because every
witness track is represented by an emitted track with the same depth-k
descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from .conp import WitnessIndex, val
from .descriptor import DescriptorElement, descriptor_element, tau
from .errors import FragmentError, ResourceLimitError
from .kripke import KripkeStructure, Track
from .unravel import Direction, unravel

REPRESENTATIVE_FRAGMENTS = frozenset(
    {
        fm.FragmentClass.PROP,
        fm.FragmentClass.AABAR,
        fm.FragmentClass.AABAR_BBAR_EBAR,
        fm.FragmentClass.AABAR_B_BBAR_EBAR,
    }
)

_REPRESENTATIVE_MODALITIES = frozenset(
    {
        fm.Modality.A,
        fm.Modality.ABAR,
        fm.Modality.B,
        fm.Modality.BBAR,
        fm.Modality.EBAR,
    }
)

@dataclass
class Verdict:
    holds: bool
    counterexample: Track | None = None


def _require_fragment(f: fm.Formula) -> None:
    # anything built from meets/met-by/started-by and the two inverses works
    # here; finishes must go to the counterexample or oracle engines
    extra = fm.modalities(f) - _REPRESENTATIVE_MODALITIES
    if extra:
        names = ", ".join(sorted(m.value for m in extra))
        raise FragmentError(
            f"the representative engine cannot handle <{names}> formulas"
        )


class _Checker:
    """One checking session: shared unravelling memoization over one
    structure.  Results for meets/met-by subformulas depend only on the
    anchoring endpoint, so they are cached per (state, subformula, budget);
    pure propositional subformulas anchored at an endpoint are resolved
    against the witnessed descriptor elements instead of a stream walk."""

    _AABAR = frozenset({fm.Modality.A, fm.Modality.ABAR})

    def __init__(self, structure: KripkeStructure):
        self.k = structure
        self.index = WitnessIndex(structure)
        self.endpoint_memo: dict[tuple, bool] = {}
        self.element_memo: dict[tuple, bool] = {}
        self.track_memo: dict[tuple, bool] = {}

    def check(self, budget: int, f: fm.Formula, track: Track) -> bool:
        if fm.modalities(f) <= self._AABAR:
            # truth only depends on the track's descriptor element
            return self._element_check(f, descriptor_element(track))
        key = (track.states, f, budget)
        cached = self.track_memo.get(key)
        if cached is not None:
            return cached
        result = self._check(budget, f, track)
        self.track_memo[key] = result
        return result

    def _element_check(self, f: fm.Formula, element: DescriptorElement) -> bool:
        """Evaluate a meets/met-by-only formula on a descriptor element.
        Propositions reduce to label intersections and the modal clauses only
        anchor at the element's endpoints, so witnessed elements are enough."""
        key = (f, element)
        cached = self.element_memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, fm.Not):
            result = not self._element_check(f.child, element)
        elif isinstance(f, fm.And):
            result = self._element_check(f.left, element) and self._element_check(
                f.right, element
            )
        elif isinstance(f, fm.Or):
            result = self._element_check(f.left, element) or self._element_check(
                f.right, element
            )
        elif isinstance(f, (fm.Diamond, fm.Box)):
            forward = f.mod is fm.Modality.A
            anchor = element.v_fin if forward else element.v_in
            want = isinstance(f, fm.Diamond)
            found = any(
                self._element_check(f.child, d) == want
                for d in self.index.elements(anchor, forward)
            )
            result = want == found
        else:
            result = val(f, element, self.k)
        self.element_memo[key] = result
        return result

    def _check(self, budget: int, f: fm.Formula, track: Track) -> bool:
        if isinstance(f, fm.Top):
            return True
        if isinstance(f, fm.Bottom):
            return False
        if isinstance(f, fm.Prop):
            mask = (
                self.k.prop_mask(f.name) if f.name in self.k.propositions else 0
            )
            if mask == 0:
                return False
            return all(self.k.label_mask(s) & mask for s in track.states)
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
            assert budget >= 1, "started-by under exhausted nesting budget"
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
        if fm.modalities(child) <= self._AABAR:
            result = any(
                self._element_check(child, d) == want
                for d in self.index.elements(state, direction is Direction.FORWARD)
            )
        else:
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
    structure: KripkeStructure, budget: int, f: fm.Formula, track: Track
) -> bool:
    """Whether the track satisfies the formula; ``budget`` must be at least
    the formula's started-by nesting depth."""
    g = fm.normalize(f)
    _require_fragment(g)
    if fm.nest_b(g) > budget:
        raise ValueError("nesting budget below the formula's nesting depth")
    return _Checker(structure).check(budget, g, track)


def mod_check(
    structure: KripkeStructure, f: fm.Formula, *, max_tau: int | None = None
) -> Verdict:
    """Check the formula against every initial track of the structure.

    Returns a verdict with a falsifying initial representative when the
    property fails.  ``max_tau`` refuses runs whose representative length
    bound exceeds the given ceiling.
    """
    g = fm.normalize(f)
    _require_fragment(g)
    depth = fm.nest_b(g)
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
