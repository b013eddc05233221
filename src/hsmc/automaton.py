"""Started-by formulas decided on a formula-driven prefix automaton.

A track t is summarized by its state ``(v_in, v_fin, joint, bits)``
(``conp.State``): its class plus one bit per ``<B>child``/``[B]child`` of
the formula, set when some proper prefix of t has ``child`` true (for
``<B>``) or false (for ``[B]``).  That is the relabelling of B_k(t) in
Molinari, Montanari, Murano, Perelli, Peron, "Checking interval properties
of computations", Acta Informatica 2016.  Extending a track by one state
needs only its state, so the states of the initial tracks are finitely
many and searched breadth-first.  One ``conp.Elements`` session per request
evaluates the formula on states and walks the product; this module holds
the fragment test and the entry points.

``<Ei>``/``[Ei]`` over a child with started-by is outside the engine:
prepending a state changes every prefix, and the bits do not say how.  A
started-by below an ``<A>``/``<Ai>`` of that child is not: it is read on
the tracks from or into an endpoint, which prepending does not change.
"""

from __future__ import annotations

from . import checker
from . import formula as fm
from .checker import Verdict
from .conp import Elements, State
from .errors import FragmentError
from .kripke import KripkeStructure, Track


def _ei_over_started_by(f: fm.Formula, below_ei: bool = False) -> bool:
    """Whether some ``<Ei>``/``[Ei]`` of the formula has a ``<B>``/``[B]``
    in its child's scope: below it and not below an ``<A>``/``<Ai>``,
    whose children are read on other tracks (``below_ei`` says that ``f``
    lies so below one)."""
    M = fm.Modality
    if M.B not in fm.modalities(f):
        return False
    if isinstance(f, fm.Not):
        return _ei_over_started_by(f.child, below_ei)
    if isinstance(f, (fm.And, fm.Or)):
        return any(_ei_over_started_by(g, below_ei) for g in (f.left, f.right))
    if isinstance(f, (fm.Diamond, fm.Box)):
        if f.mod is M.B and below_ei:
            return True
        if f.mod in (M.A, M.ABAR):
            below_ei = False
        elif f.mod is M.EBAR:
            below_ei = True
        return _ei_over_started_by(f.child, below_ei)
    return False


def in_fragment(f: fm.Formula) -> bool:
    """Whether the engine decides a normalized formula: its modalities are
    among ``A Ai B Bi Ei`` and no ``<Ei>``/``[Ei]`` has a started-by child
    outside ``<A>``/``<Ai>``."""
    return checker.in_fragment(f) and not _ei_over_started_by(f)


def _require_fragment(f: fm.Formula) -> None:
    checker._require_fragment(f, "automaton")
    if _ei_over_started_by(f):
        raise FragmentError(
            "the automaton engine cannot handle <Ei>/[Ei] over <B>/[B]; "
            "use the representative engine"
        )


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
    session = Elements(structure)
    scope = session.scope(g)
    label = structure.label_mask
    state = (track.fst, track[1], label(track.fst) & label(track[1]), 0)
    for v in track.states[2:]:
        state = (track.fst, v, state[2] & label(v), session.advance(state, scope))
    return session.check(g, state)


def mod_check(structure: KripkeStructure, f: fm.Formula) -> Verdict:
    """Check the formula against every initial track of the structure.

    The product states of the initial tracks are searched breadth-first and
    each is checked when it is dequeued, so a violation comes with a
    shortest violating initial track.  At scope 0 they are the initial
    state's witnessed classes, checked as in ``checker.mod_check``.
    """
    g = fm.normalize(f)
    _require_fragment(g)
    session = Elements(structure)
    scope = session.scope(g)
    if not scope:
        violation = session.initial_violation(g)
        return Verdict(violation is None, violation)
    parent: dict[State, State | None] = {}
    for state in session.walk(session.starts(structure.initial), scope, parent):
        if not session.check(g, state):
            return Verdict(False, _unwind(state, parent))
    return Verdict(True)
