"""Started-by formulas decided on a formula-driven prefix automaton.

A track t is summarized by its product state ``(v_in, v_fin, joint,
bits)``: its class (``conp.Class``, whose joint is the AND of the label
masks of its states), plus one bit per ``(child, want)`` pair of the
formula -- one pair per ``<B>child`` (want true) and per ``[B]child`` (want
false).  A pair's bit is set when some proper prefix p of t has
``child(p) == want``.  The proper prefixes of ``t·v`` are those of t and t
itself, so the state of ``t·v`` is ``(v_in, v, joint & label(v), bits')``,
where ``bits'`` adds every pair that holds on t itself.  The state of a
two-state track ``u·w`` is ``(u, w, label(u) & label(w), 0)``.

By induction on the formula, a subformula has one truth value on all tracks
that share a state:

- ``<B>``/``[B]`` read one bit;
- ``<A>`` ranges over the states reachable from the two-state tracks that
  start at ``v_fin``;
- ``<Ai>`` ranges over the reachable states of every start whose final
  state is ``v_in``;
- ``<Bi>`` ranges over the states reachable in one or more steps from the
  current state;
- a subformula without started-by reads the class alone
  (``conp.Elements.check``), ``<Ei>``/``[Ei]`` included.

``<Ei>``/``[Ei]`` over a child with started-by is outside the engine:
prepending a state changes every prefix, and the bits do not say how.

**Scopes.**  A subformula's scope is the set of pairs that occur in it, not
counting those below an ``<A>``/``<Ai>``, whose children are read on other
tracks.  A subformula is evaluated on its state with the bits masked to its
scope, so states that differ only in bits it does not read share one memo
entry, and its searches walk the smaller masked automaton.  A step in a
scope evaluates the child of each pair of that scope; a pair's child does
not contain the pair, so its scope is strictly smaller, and the recursion
is well-founded.

At started-by depth 0 there are no pairs and a state is exactly a witnessed
class, so ``mod_check`` checks the initial state's witnessed classes in
breadth-first order, as ``checker.mod_check`` does.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from . import checker
from . import formula as fm
from .checker import Verdict
from .conp import Elements
from .errors import FragmentError
from .kripke import KripkeStructure, Track

# (v_in, v_fin, joint label mask, pair bits)
State = tuple[int, int, int, int]


def _ei_over_started_by(f: fm.Formula) -> bool:
    if fm.Modality.B not in fm.modalities(f):
        return False
    if isinstance(f, fm.Not):
        return _ei_over_started_by(f.child)
    if isinstance(f, (fm.And, fm.Or)):
        return _ei_over_started_by(f.left) or _ei_over_started_by(f.right)
    if isinstance(f, (fm.Diamond, fm.Box)):
        return f.mod is fm.Modality.EBAR or _ei_over_started_by(f.child)
    return False


def in_fragment(f: fm.Formula) -> bool:
    """Whether the engine decides a normalized formula: its modalities are
    among ``A Ai B Bi Ei`` and no ``<Ei>``/``[Ei]`` has a started-by child."""
    return fm.modalities(f) <= fm.REPRESENTATIVE_MODALITIES and not (
        _ei_over_started_by(f)
    )


def _require_fragment(f: fm.Formula) -> None:
    checker._require_fragment(f)
    if _ei_over_started_by(f):
        raise FragmentError(
            "the automaton engine cannot handle <Ei>/[Ei] over <B>/[B]; "
            "use the representative engine"
        )


class _Automaton:
    """The product automaton of one structure and one formula.

    Subformula truth is cached per (subformula, state masked to its scope),
    and ``<A>``/``<Ai>`` results per (child, want, endpoint).
    """

    def __init__(self, structure: KripkeStructure, f: fm.Formula):
        self.k = structure
        self.elements = Elements(structure)
        self.pairs: list[tuple[fm.Formula, bool]] = []
        self.pair_bit: dict[tuple[fm.Formula, bool], int] = {}
        # the scope of every subformula with started-by; the others have none
        self.scopes: dict[fm.Formula, int] = {}
        self._number(f)
        self.memo: dict[tuple, bool] = {}
        self.anchored_memo: dict[tuple, bool] = {}
        self.reach_memo: dict[int, tuple[State, ...]] = {}

    def _number(self, f: fm.Formula) -> int:
        """Number the pairs of ``f`` and return its scope."""
        scope = self.scopes.get(f)
        if scope is not None:
            return scope
        if fm.Modality.B not in fm.modalities(f):
            return 0
        if isinstance(f, fm.Not):
            scope = self._number(f.child)
        elif isinstance(f, (fm.And, fm.Or)):
            scope = self._number(f.left) | self._number(f.right)
        else:
            scope = self._number(f.child)
            if f.mod is fm.Modality.B:
                pair = (f.child, isinstance(f, fm.Diamond))
                if pair not in self.pair_bit:
                    self.pair_bit[pair] = len(self.pairs)
                    self.pairs.append(pair)
                scope |= 1 << self.pair_bit[pair]
            elif f.mod in (fm.Modality.A, fm.Modality.ABAR):
                scope = 0
        self.scopes[f] = scope
        return scope

    def holds(self, f: fm.Formula, state: State) -> bool:
        scope = self.scopes.get(f)
        if scope is None:  # no started-by: the class decides
            return self.elements.check(f, state[:3])
        v_in, v_fin, joint, bits = state
        state = (v_in, v_fin, joint, bits & scope)
        key = (f, state)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, fm.Not):
            result = not self.holds(f.child, state)
        elif isinstance(f, fm.And):
            result = self.holds(f.left, state) and self.holds(f.right, state)
        elif isinstance(f, fm.Or):
            result = self.holds(f.left, state) or self.holds(f.right, state)
        else:
            result = self._modal(f, state)
        self.memo[key] = result
        return result

    def _modal(self, f: fm.Diamond | fm.Box, state: State) -> bool:
        M = fm.Modality
        want = isinstance(f, fm.Diamond)
        child = f.child
        if f.mod is M.B:
            return bool(state[3] >> self.pair_bit[(child, want)] & 1) == want
        if f.mod is M.A:
            found = self._anchored(child, want, state[1], True)
        elif f.mod is M.ABAR:
            found = self._anchored(child, want, state[0], False)
        elif f.mod is M.BBAR:
            scope = self.scopes[child]
            found = any(
                self.holds(child, s) == want
                for s in self._bfs(self._successors(state, scope), scope, {})
            )
        else:
            raise FragmentError(
                f"the automaton engine cannot handle <{f.mod.value}> over <B>/[B]"
            )
        return found == want

    def _anchored(
        self, child: fm.Formula, want: bool, anchor: int, forward: bool
    ) -> bool:
        """Whether some track starting (forward) or ending at ``anchor`` has
        ``child == want``."""
        key = (child, want, anchor, forward)
        cached = self.anchored_memo.get(key)
        if cached is not None:
            return cached
        scope = self.scopes[child]
        if forward:
            states: Iterable[State] = self._bfs(self._starts(anchor), scope, {})
        else:
            states = (s for s in self._reachable(scope) if s[1] == anchor)
        result = any(self.holds(child, s) == want for s in states)
        self.anchored_memo[key] = result
        return result

    def _reachable(self, scope: int) -> tuple[State, ...]:
        """The states of every track of the structure, masked to ``scope``."""
        if scope not in self.reach_memo:
            starts = [s for u in range(self.k.n_states) for s in self._starts(u)]
            self.reach_memo[scope] = tuple(self._bfs(starts, scope, {}))
        return self.reach_memo[scope]

    def _bfs(
        self, starts: Iterable[State], scope: int, parent: dict
    ) -> Iterator[State]:
        """Breadth-first walk of the automaton masked to ``scope``.  A state
        is yielded before its successors are built, and ``parent`` maps it
        to the state it was first reached from (None for a start)."""
        queue: deque[State] = deque()
        for s in starts:
            if s not in parent:
                parent[s] = None
                queue.append(s)
        while queue:
            s = queue.popleft()
            yield s
            for nxt in self._successors(s, scope):
                if nxt not in parent:
                    parent[nxt] = s
                    queue.append(nxt)

    def _starts(self, u: int) -> list[State]:
        """The states of the two-state tracks from ``u``."""
        label = self.k.label_mask
        return [(u, w, label(u) & label(w), 0) for w in self.k.successors(u)]

    def _advance(self, state: State, scope: int) -> int:
        """The bits of every one-state extension: every pair of ``scope``
        that holds on the track itself is added.  The state's bits lie
        within ``scope``."""
        bits = state[3]
        todo = scope & ~bits
        while todo:
            low = todo & -todo
            child, want = self.pairs[low.bit_length() - 1]
            if self.holds(child, state) == want:
                bits |= low
            todo ^= low
        return bits

    def _successors(self, state: State, scope: int) -> list[State]:
        v_in, v_fin, joint, _ = state
        bits = self._advance(state, scope)
        label = self.k.label_mask
        return [(v_in, v, joint & label(v), bits) for v in self.k.successors(v_fin)]


def _unwind(state: State, parent: dict) -> Track:
    finals = []
    cursor: State | None = state
    while cursor is not None:
        finals.append(cursor[1])
        cursor = parent[cursor]
    return Track((state[0], *reversed(finals)))


def check(structure: KripkeStructure, f: fm.Formula, track: Track) -> bool:
    """Whether the track satisfies the formula: the step is folded along the
    track and the formula read on the final state."""
    structure.track(track.states)
    g = fm.normalize(f)
    _require_fragment(g)
    automaton = _Automaton(structure, g)
    scope = automaton.scopes.get(g, 0)
    label = structure.label_mask
    state = (track.fst, track[1], label(track.fst) & label(track[1]), 0)
    for v in track.states[2:]:
        bits = automaton._advance(state, scope)
        state = (track.fst, v, state[2] & label(v), bits)
    return automaton.holds(g, state)


def mod_check(structure: KripkeStructure, f: fm.Formula) -> Verdict:
    """Check the formula against every initial track of the structure.

    The product states of the initial tracks are searched breadth-first and
    each is checked when it is dequeued, so a violation comes with a
    shortest violating initial track.  At started-by depth 0 the initial
    state's witnessed classes are checked instead, as in
    ``checker.mod_check``, with the same result.
    """
    g = fm.normalize(f)
    _require_fragment(g)
    automaton = _Automaton(structure, g)
    if g not in automaton.scopes:
        violation = automaton.elements.initial_violation(g)
        return Verdict(violation is None, violation)
    parent: dict[State, State | None] = {}
    starts = automaton._starts(structure.initial)
    for state in automaton._bfs(starts, automaton.scopes[g], parent):
        if not automaton.holds(g, state):
            return Verdict(False, _unwind(state, parent))
    return Verdict(True)
