"""Counterexample search over descriptor elements.

For formulas in the universal meets/met-by/starts/finishes fragment a
violation can be certified at the level of descriptor elements alone: every
element witnessed in the structure is realized by a short track (quadratic
in the state count), and the existential dual of the property can be decided
by composing witnessed elements, trying for started-by both the drop-one-
state decomposition and the two-piece split.  The search is a deterministic
exhaustive rendering of the underlying guess-and-verify procedure, with the
accepting choices replayed to assemble a concrete violating track.
"""

from __future__ import annotations

from collections import deque

from . import formula as fm
from .errors import FragmentError
from .kripke import KripkeStructure, Track
from .descriptor import DescriptorElement


def _compile(f: fm.Formula, structure: KripkeStructure, positive: bool = True):
    """A test on an element's joint label mask J that decides the pure
    propositional formula (its negation when not ``positive``).

    Negations are pushed to the letters, and each maximal ``&``/``|`` chain
    is flattened: its letters fold into a mask of positive and a mask of
    negated letters, so a conjunction needs ``J & pos == pos`` and no bit of
    ``J & neg``, and a disjunction ``J & pos`` or ``~J & neg``.  A letter
    the structure lacks is false.
    """
    while isinstance(f, fm.Not):
        f, positive = f.child, not positive
    conj = isinstance(f, fm.And) == positive
    pos = neg = 0
    tests = []
    decided = None
    todo = [(f, positive)]
    while todo:
        g, p = todo.pop()
        while isinstance(g, fm.Not):
            g, p = g.child, not p
        if isinstance(g, (fm.And, fm.Or)):
            if (isinstance(g, fm.And) == p) == conj:
                todo += ((g.right, p), (g.left, p))
            else:
                tests.append(_compile(g, structure, p))
            continue
        if isinstance(g, fm.Prop) and g.name in structure.propositions:
            if p:
                pos |= structure.prop_mask(g.name)
            else:
                neg |= structure.prop_mask(g.name)
            continue
        if isinstance(g, fm.Top):
            truth = p
        elif isinstance(g, (fm.Bottom, fm.Prop)):
            truth = not p
        else:
            raise FragmentError("val is defined on pure propositional formulas only")
        if truth != conj:
            # a true letter decides a disjunction, a false one a conjunction;
            # the rest of the chain is still read, so a modality raises
            decided = truth
    if decided is not None:
        return lambda joint: decided
    if conj:
        return lambda joint: (
            joint & pos == pos and not joint & neg and all(t(joint) for t in tests)
        )
    return lambda joint: bool(joint & pos or ~joint & neg) or any(
        t(joint) for t in tests
    )


class Kernels:
    """The propositional kernels of one checking session: each compiled
    once to a test on the joint label mask J (the AND of the label masks of
    an element's entry, internal and final states), its verdict cached per
    J."""

    def __init__(self, structure: KripkeStructure):
        self.k = structure
        self._kernels: dict[fm.Formula, tuple] = {}

    def holds(self, f: fm.Formula, element: DescriptorElement) -> bool:
        k = self.k
        joint = (
            k.joint_label_mask(element.internal)
            & k.label_mask(element.v_in)
            & k.label_mask(element.v_fin)
        )
        kernel = self._kernels.get(f)
        if kernel is None:
            kernel = self._kernels[f] = (_compile(f, k), {})
        test, verdicts = kernel
        verdict = verdicts.get(joint)
        if verdict is None:
            verdict = verdicts[joint] = test(joint)
        return verdict


def val(f: fm.Formula, element: DescriptorElement, structure: KripkeStructure) -> bool:
    """Evaluate a pure propositional formula on a descriptor element: a
    letter holds iff it labels the entry state, the final state, and every
    internal state."""
    return Kernels(structure).holds(f, element)


def concat_descr(d1: DescriptorElement, d2: DescriptorElement) -> DescriptorElement:
    """Element of the concatenation of two tracks realizing d1 and d2 (the
    joining edge is the caller's concern)."""
    internal = d1.internal | (1 << d1.v_fin) | (1 << d2.v_in) | d2.internal
    return DescriptorElement(d1.v_in, internal, d2.v_fin)


class _Table:
    """Witnessed descriptor elements anchored at one state, with parent
    pointers for shortest realizations.

    Forward: elements of tracks starting at the anchor, closed under
    extending a realization by one edge.  Backward: elements of tracks
    ending at the anchor, closed under prepending.  One breadth-first walk
    over ``(internal mask, boundary)`` keys serves both; the boundary is
    the final state going forward and the first state going backward, so
    only the neighbour function and the element's orientation depend on
    the direction.  Breadth-first order keeps every realization within the
    quadratic length bound.
    """

    def __init__(self, structure: KripkeStructure, anchor: int, forward: bool):
        self.k = structure
        self.anchor = anchor
        self.forward = forward
        self.parent: dict[tuple[int, int], tuple[int, int] | None] = {}
        self.masks_by_boundary: dict[int, list[int]] = {}
        self._elements: tuple[DescriptorElement, ...] | None = None
        neighbours = structure.successors if forward else structure.predecessors
        queue: deque[tuple[int, int]] = deque()
        for w in neighbours(anchor):
            self._add((0, w), None, queue)
        while queue:
            item = queue.popleft()
            mask, boundary = item
            for nxt in neighbours(boundary):
                self._add((mask | 1 << boundary, nxt), item, queue)

    def _add(self, key, parent, queue) -> None:
        if key not in self.parent:
            self.parent[key] = parent
            queue.append(key)
            self.masks_by_boundary.setdefault(key[1], []).append(key[0])

    def _key(self, element: DescriptorElement) -> tuple[int, int] | None:
        if self.forward:
            anchor, boundary = element.v_in, element.v_fin
        else:
            anchor, boundary = element.v_fin, element.v_in
        return (element.internal, boundary) if anchor == self.anchor else None

    def has(self, element: DescriptorElement) -> bool:
        return self._key(element) in self.parent

    def elements(self) -> tuple[DescriptorElement, ...]:
        """The witnessed elements in (internal, v_in, v_fin) order, sorted
        on the first call and kept."""
        if self._elements is None:
            out = [
                DescriptorElement(self.anchor, mask, boundary)
                if self.forward
                else DescriptorElement(boundary, mask, self.anchor)
                for mask, boundary in self.parent
            ]
            out.sort(key=lambda d: (d.internal, d.v_in, d.v_fin))
            self._elements = tuple(out)
        return self._elements

    def realize(self, element: DescriptorElement) -> Track:
        """A track of length at most 2 + |W|^2 realizing the element."""
        key = self._key(element)
        if key not in self.parent:
            raise KeyError(f"element {element} is not witnessed at this anchor")
        hops = []
        cursor: tuple[int, int] | None = key
        while cursor is not None:
            hops.append(cursor[1])
            cursor = self.parent[cursor]
        if self.forward:
            return Track((self.anchor, *reversed(hops)))
        return Track((*hops, self.anchor))


class WitnessIndex:
    """Lazy per-structure cache of witnessed-element tables."""

    def __init__(self, structure: KripkeStructure):
        self.k = structure
        self._tables: dict[tuple[int, bool], _Table] = {}

    def table(self, anchor: int, forward: bool) -> _Table:
        key = (anchor, forward)
        if key not in self._tables:
            self._tables[key] = _Table(self.k, anchor, forward)
        return self._tables[key]

    def elements(self, anchor: int, forward: bool) -> tuple[DescriptorElement, ...]:
        return self.table(anchor, forward).elements()


def witnessed_elements(
    structure: KripkeStructure, anchor: int, forward: bool = True
) -> frozenset[DescriptorElement]:
    """All descriptor elements realized by some track starting (ending) at
    the anchor when forward (backward)."""
    return frozenset(_Table(structure, anchor, forward).elements())


def realize_element(
    structure: KripkeStructure,
    anchor: int,
    element: DescriptorElement,
    forward: bool = True,
) -> Track:
    return _Table(structure, anchor, forward).realize(element)


_EXISTS_MODALITIES = (
    fm.Modality.A,
    fm.Modality.ABAR,
    fm.Modality.B,
    fm.Modality.E,
)


class _Search:
    """Memoized existential search: for (subformula, element) produce a track
    realizing the element on which the subformula holds, or None."""

    def __init__(self, structure: KripkeStructure, index: WitnessIndex | None = None):
        self.k = structure
        self.index = index or WitnessIndex(structure)
        self.kernels = Kernels(structure)
        self.memo: dict[tuple[fm.Formula, DescriptorElement], Track | None] = {}
        self.sat_memo: dict[
            tuple[fm.Formula, int, bool], list[tuple[DescriptorElement, Track]]
        ] = {}

    def search(self, f: fm.Formula, d: DescriptorElement) -> Track | None:
        key = (f, d)
        if key in self.memo:
            return self.memo[key]
        result = self._search(f, d)
        self.memo[key] = result
        return result

    def _realize(self, d: DescriptorElement) -> Track:
        return self.index.table(d.v_in, True).realize(d)

    def _search(self, f: fm.Formula, d: DescriptorElement) -> Track | None:
        if fm.is_propositional(f):
            return self._realize(d) if self.kernels.holds(f, d) else None
        if isinstance(f, fm.Or):
            return self.search(f.left, d) or self.search(f.right, d)
        if isinstance(f, fm.Diamond) and f.mod in _EXISTS_MODALITIES:
            M = fm.Modality
            if f.mod is M.A:
                for d2 in self.index.elements(d.v_fin, True):
                    if self.search(f.child, d2) is not None:
                        return self._realize(d)
                return None
            if f.mod is M.ABAR:
                for d2 in self.index.elements(d.v_in, False):
                    if self.search(f.child, d2) is not None:
                        return self._realize(d)
                return None
            if f.mod is M.B:
                return self._split_search(f.child, d, prefix=True)
            return self._split_search(f.child, d, prefix=False)
        raise FragmentError(
            "the counterexample engine handles the existential "
            "meets/met-by/starts/finishes fragment only"
        )

    def _satisfying(
        self, child: fm.Formula, anchor: int, forward: bool
    ) -> list[tuple[DescriptorElement, Track]]:
        """Witnessed elements at an anchor on which the subformula can be
        realized, with one realizing track each."""
        key = (child, anchor, forward)
        if key not in self.sat_memo:
            out = []
            for d in self.index.elements(anchor, forward):
                witness = self.search(child, d)
                if witness is not None:
                    out.append((d, witness))
            self.sat_memo[key] = out
        return self.sat_memo[key]

    def _split_search(
        self, child: fm.Formula, d: DescriptorElement, prefix: bool
    ) -> Track | None:
        """Realize a started-by (prefix=True) or finishes witness inside d:
        either the witness misses a single boundary state of d, or d splits
        into the witness's element joined to a second witnessed element."""
        table = self.index.table(d.v_in, True) if prefix else self.index.table(d.v_fin, False)
        # drop-one-state case: the removed boundary state must come from d's
        # internal set, and the witness's internal set covers the rest
        for boundary in sorted(d.internal_states()):
            if prefix and not self.k.has_edge(boundary, d.v_fin):
                continue
            if not prefix and not self.k.has_edge(d.v_in, boundary):
                continue
            for mask in sorted({d.internal & ~(1 << boundary), d.internal}):
                d2 = (
                    DescriptorElement(d.v_in, mask, boundary)
                    if prefix
                    else DescriptorElement(boundary, mask, d.v_fin)
                )
                if table.has(d2):
                    witness = self.search(child, d2)
                    if witness is not None:
                        if prefix:
                            return Track(witness.states + (d.v_fin,))
                        return Track((d.v_in,) + witness.states)
        # split case: a witness piece joined to a second witnessed element
        anchor = d.v_in if prefix else d.v_fin
        for d2, witness in self._satisfying(child, anchor, prefix):
            fixed_d2 = d2.internal | (1 << (d2.v_fin if prefix else d2.v_in))
            if fixed_d2 & ~d.internal:
                continue  # the piece would stick out of d
            joints = (
                self.k.successors(d2.v_fin)
                if prefix
                else self.k.predecessors(d2.v_in)
            )
            for joint in joints:
                if not d.internal >> joint & 1:
                    continue
                fixed = fixed_d2 | (1 << joint)
                missing = d.internal & ~fixed
                other_table = self.index.table(joint, prefix)
                boundary = d.v_fin if prefix else d.v_in
                for mask in other_table.masks_by_boundary.get(boundary, ()):
                    if mask & ~d.internal or missing & ~mask:
                        continue
                    d3 = (
                        DescriptorElement(joint, mask, d.v_fin)
                        if prefix
                        else DescriptorElement(d.v_in, mask, joint)
                    )
                    other = other_table.realize(d3)
                    if prefix:
                        return Track(witness.states + other.states)
                    return Track(other.states + witness.states)
        return None


def check_exists(
    structure: KripkeStructure, f: fm.Formula, element: DescriptorElement
) -> bool:
    """Whether some track realizing the element satisfies the existential-
    fragment formula."""
    return exists_witness(structure, f, element) is not None


def exists_witness(
    structure: KripkeStructure, f: fm.Formula, element: DescriptorElement
) -> Track | None:
    """A track realizing the element on which the existential-fragment
    formula holds, or None."""
    g = fm.normalize(f)
    if not fm.matches_exists_grammar(g):
        raise FragmentError(
            f"expected an existential-fragment formula, got {fm.classify(g).value}"
        )
    return _Search(structure).search(g, element)


def provide_counterex(
    structure: KripkeStructure, f: fm.Formula
) -> tuple[DescriptorElement, Track] | None:
    """Search for an initial track violating a universal-fragment formula.

    Returns the descriptor element of the violating class together with a
    concrete initial track on which the dual existential formula holds, or
    None when the property is satisfied.
    """
    g = fm.normalize(f)
    if not fm.matches_forall_grammar(g):
        raise FragmentError(
            f"provide_counterex expects a universal-fragment formula, got {fm.classify(g).value}"
        )
    dual = fm.to_exists_dual(g)
    search = _Search(structure)
    for d in search.index.elements(structure.initial, True):
        witness = search.search(dual, d)
        if witness is not None:
            return d, witness
    return None
