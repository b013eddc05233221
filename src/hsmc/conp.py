"""Counterexample search over classes of tracks.

For formulas in the universal meets/met-by/starts/finishes fragment a
violation is a short initial track on which the existential dual holds.
The dual has ``&`` only inside its propositional kernels, so the set of
classes ``(v_in, v_fin, J)`` (below) on which it can hold composes
bottom-up from the witnessed classes: ``Elements.satisfying`` maps every
such class to the length of its shortest satisfying track and one
derivation, and the search replays the derivation of the shortest initial
class alone.  It is a deterministic exhaustive rendering of the paper's
guess-and-verify procedure; only ``witnessed_elements`` and
``realize_element`` still walk descriptor elements.

A formula without started-by has one truth value on all tracks that share
a class ``(v_in, v_fin, J)``: under homogeneity a letter reads only J,
meets/met-by read only an endpoint, and extending a track to the right by
one state b gives the class ``(v_in, b, J & label(b))``, by a track of
class ``(w, b, j)`` the class ``(v_in, b, J & j)``, and to the left the
mirror.  A formula with started-by also reads, per ``<B>child``/
``[B]child``, whether some proper prefix has ``child`` true/false: one bit
each, and a class with these bits is a state ``(v_in, v_fin, J, bits)``.
``Elements`` is the one evaluator on states, one session per request, for
the search here, the automaton and the representative walk (which sends it
started-by-free formulas only).  It walks states, not elements, with one
breadth-first walk (``Elements.walk``): its witness tables are that walk at
scope 0, every walk is projected onto the letters of the formula it
serves, and its memo is keyed by the state with the joint masked to the
letters the subformula reads and the bits to the pairs it reads.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from . import formula as fm
from .errors import FormulaError, FragmentError
from .kripke import KripkeStructure, Track
from .descriptor import DescriptorElement, descriptor_element


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


# A class (v_in, v_fin, joint), where joint is the AND of the label masks of
# all of a track's states, and the bits of the started-by pairs its track's
# proper prefixes satisfy: all that Elements.check reads.  A class is a
# state whose bits are 0.
State = tuple[int, int, int, int]
# How Elements.replay rebuilds a track of some class: None for the shortest
# track of the class in its first state's witness table, or (forward,
# previous class, its derivation) for a track of the previous class extended
# by the class's last state when forward, else by its first state.
Derivation = tuple | None
# A class's entry in Elements.satisfying: the length of its shortest
# satisfying track, and a derivation of one.
Witness = tuple[int, Derivation]


def element_state(structure: KripkeStructure, d: DescriptorElement) -> State:
    """The state of the tracks that realize a descriptor element: its class,
    with no bits."""
    joint = (
        structure.joint_label_mask(d.internal)
        & structure.label_mask(d.v_in)
        & structure.label_mask(d.v_fin)
    )
    return (d.v_in, d.v_fin, joint, 0)


class Kernels:
    """The propositional kernels of one checking session: each compiled
    once to a test on the joint label mask J (the AND of the label masks of
    an element's entry, internal and final states), its verdict cached per
    J."""

    def __init__(self, structure: KripkeStructure):
        self.k = structure
        self._kernels: dict[fm.Formula, tuple] = {}

    def compile(self, f: fm.Formula) -> tuple:
        """The kernel's test and verdict cache, compiled on first sight."""
        kernel = self._kernels.get(f)
        if kernel is None:
            kernel = self._kernels[f] = (_compile(f, self.k), {})
        return kernel

    def on_joint(self, f: fm.Formula, joint: int) -> bool:
        test, verdicts = self._kernels.get(f) or self.compile(f)
        verdict = verdicts.get(joint)
        if verdict is None:
            verdict = verdicts[joint] = test(joint)
        return verdict


def val(f: fm.Formula, element: DescriptorElement, structure: KripkeStructure) -> bool:
    """Evaluate a pure propositional formula on a descriptor element: a
    letter holds iff it labels the entry state, the final state, and every
    internal state."""
    return Kernels(structure).on_joint(f, element_state(structure, element)[2])


def concat_descr(d1: DescriptorElement, d2: DescriptorElement) -> DescriptorElement:
    """Element of the concatenation of two tracks realizing d1 and d2 (the
    joining edge is the caller's concern)."""
    internal = d1.internal | (1 << d1.v_fin) | (1 << d2.v_in) | d2.internal
    return DescriptorElement(d1.v_in, internal, d2.v_fin)


def _unwind(s: tuple, parent: dict, forward: bool = True) -> Track:
    """The track by which a breadth-first walk first reached ``s``, read off
    its parent pointers: each step added a last state when ``forward``,
    else a first state.  ``s`` and its ancestors are ``(v_in, v_fin, ...)``
    tuples, as the states of ``Elements.walk`` and the keys of
    ``_element_walk`` are."""
    ends = []
    cursor = s
    while cursor is not None:
        ends.append(cursor[1] if forward else cursor[0])
        cursor = parent[cursor]
    if forward:
        return Track((s[0], *reversed(ends)))
    return Track((*ends, s[1]))


class _Table:
    """A witness table: the session's scope-0 walk from (``forward``) or
    into ``anchor``, its starts projected onto ``letters``, materialized.
    ``parent`` maps the state of every track from or into the anchor to the
    state it was first reached from, in breadth-first order, so the track
    ``_unwind`` reads off for a state is a shortest one of that state,
    within the quadratic length bound.

    Projection commutes with the step, so a projected table's states are
    the projections of the full table's, in the order of the first full
    state that projects to each, and each is reached through the projection
    of that state's parent: its track is that state's.

    The class adds nothing to the walk but a name: the benchmark's tracer
    counts witness tables by patching ``conp._Table``, and reads
    ``len(table.parent)`` as the table's size.
    """

    def __init__(self, session: Elements, anchor: int, forward: bool, letters: int = -1):
        self.parent: dict[State, State | None] = {}
        starts = session.starts(anchor, forward, letters)
        for _ in session.walk(starts, 0, self.parent, forward):
            pass


_ENDPOINT_MODALITIES = frozenset({fm.Modality.A, fm.Modality.ABAR})


def _letters(f: fm.Formula, structure: KripkeStructure) -> int:
    """The letters of the structure that a formula reads on its own track
    and its extensions: those of its kernels, not counting the ones below
    ``<A>``/``<Ai>``, whose children are read on other tracks.  A
    ``<B>``/``[B]`` child's letters count: the step that sets its bit reads
    it on the track itself."""
    letters = 0
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, fm.Prop):
            if g.name in structure.propositions:
                letters |= structure.prop_mask(g.name)
        elif isinstance(g, fm.Not):
            todo.append(g.child)
        elif isinstance(g, (fm.And, fm.Or)):
            todo += (g.left, g.right)
        elif isinstance(g, (fm.Diamond, fm.Box)) and g.mod not in _ENDPOINT_MODALITIES:
            todo.append(g.child)
    return letters


class Elements:
    """One checking session's evaluator: decides formulas over ``A Ai B Bi
    Ei`` on states ``(v_in, v_fin, joint, bits)``.

    A state is a class plus one bit per ``(child, want)`` pair of the
    formulas checked so far -- one pair per ``<B>child`` (want true) and
    per ``[B]child`` (want false), numbered on first sight (``scope``).  A
    pair's bit is set when some proper prefix p of the track has
    ``child(p) == want``.  The proper prefixes of ``t·v`` are those of t and
    t itself, so the state of ``t·v`` is ``(v_in, v, joint & label(v),
    bits')``, where ``bits'`` adds every pair that holds on t itself
    (``advance``); a two-state track ``u·w`` has the state ``(u, w,
    label(u) & label(w), 0)``.  A class is a state whose bits are 0, and a
    subformula without started-by has no pairs.  By induction on the
    formula, a subformula has one truth value on all tracks that share a
    state:

    - a propositional kernel reads the joint, and goes whole to the
      session's ``Kernels``;
    - ``<B>``/``[B]`` read one bit;
    - ``<A>``/``<Ai>`` read the states of the tracks from/into an endpoint;
    - ``<Bi>``/``<Ei>`` read the states of the one-state extensions and of
      the concatenations with other tracks (``related``).

    ``<Ei>``/``[Ei]`` over a child with pairs is outside the evaluator:
    prepending a state changes every prefix, and the bits do not say how.

    **Scopes and masks.**  A subformula's scope is the set of pairs that
    occur in it, and its letters are those it reads (``_letters``), both
    not counting what is below an ``<A>``/``<Ai>``, whose children are read
    on other tracks.  A subformula is evaluated on its state with the joint
    masked to its letters and the bits to its scope, so states that differ
    only in what it does not read share one memo entry, and its searches
    walk the smaller masked product.  A step in a scope evaluates the child
    of each pair of that scope; a pair's child does not contain the pair,
    so its scope is strictly smaller, and the recursion is well-founded.

    **One walk.**  ``walk`` is the session's one breadth-first loop: it
    walks the product of the structure and a scope's bits forward, or at
    scope 0 backward.  At scope 0 the states are the witnessed classes, and
    a witness table (``_Table``) is the walk from or into one state,
    materialized and cached per (anchor, direction, letters).  Every walk
    is projected at its starts onto the letters of the formula it serves:
    ``first_violation`` onto those of the formula it checks, ``anchored``
    and ``related`` onto those of the formula they read on the walk's
    states.  A successor's joint is a submask of its parent's, so masking
    the starts projects the whole walk.  Results are cached per
    (subformula, masked state), and the meets/met-by ones per (subformula,
    endpoint).

    For the counterexample search the session also maps an existential-
    fragment formula to the classes of its satisfying tracks from an
    anchor (``satisfying``), cached per (formula, anchor).  It reads the
    all-letter tables: it composes classes across kernels that read
    different letters.
    """

    def __init__(self, structure: KripkeStructure):
        self.k = structure
        self.kernels = Kernels(structure)
        self.labels = tuple(map(structure.label_mask, range(structure.n_states)))
        self._tables: dict[tuple[int, bool, int], _Table] = {}
        # formula -> (letters, scope, whether it is a propositional kernel)
        self.masks: dict[fm.Formula, tuple[int, int, bool]] = {}
        self.pairs: list[tuple[fm.Formula, bool]] = []
        self.pair_bit: dict[tuple[fm.Formula, bool], int] = {}
        self.memo: dict[tuple, bool] = {}
        self.anchored_memo: dict[tuple, bool] = {}
        self.reach_memo: dict[tuple[int, int], tuple[State, ...]] = {}
        self.witnesses: dict[tuple[fm.Formula, int], dict[State, Witness]] = {}

    def table(self, anchor: int, forward: bool, letters: int = -1) -> _Table:
        """The witness table anchored at ``anchor``, projected onto
        ``letters`` (all of them by default)."""
        key = (anchor, forward, letters)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _Table(self, anchor, forward, letters)
        return table

    def scope(self, f: fm.Formula) -> int:
        """The pairs of ``f`` as a bit mask, numbering the new ones."""
        return (self.masks.get(f) or self._masks(f))[1]

    def _masks(self, f: fm.Formula) -> tuple[int, int, bool]:
        """Cache ``f``'s (letters, scope, kernel), numbering its new pairs;
        ``kernel`` says whether ``f`` is a propositional kernel.  Every
        subformula is checked on first sight, so a formula outside the
        evaluator raises ``FragmentError`` however much of it an evaluation
        reads."""
        M = fm.Modality
        try:
            mods = fm.modalities(f)
        except FormulaError:
            raise FragmentError("the checker needs a normalized formula") from None
        if not mods:
            self.kernels.compile(f)
            masks = (_letters(f, self.k), 0, True)
        else:
            if isinstance(f, fm.Not):
                scope = self.scope(f.child)
            elif isinstance(f, (fm.And, fm.Or)):
                scope = self.scope(f.left) | self.scope(f.right)
            elif not isinstance(f, (fm.Diamond, fm.Box)):
                raise FragmentError("the checker needs a normalized formula")
            elif f.mod not in fm.REPRESENTATIVE_MODALITIES:
                raise FragmentError(f"the evaluator cannot handle <{f.mod.value}> formulas")
            else:
                scope = self.scope(f.child)
                if f.mod is M.B:
                    pair = (f.child, isinstance(f, fm.Diamond))
                    if pair not in self.pair_bit:
                        self.pair_bit[pair] = len(self.pairs)
                        self.pairs.append(pair)
                    scope |= 1 << self.pair_bit[pair]
                elif f.mod in _ENDPOINT_MODALITIES:
                    scope = 0
                elif f.mod is M.EBAR and scope:
                    raise FragmentError("<Ei>/[Ei] over <B>/[B] is outside the evaluator")
            masks = (_letters(f, self.k), scope, False)
        self.masks[f] = masks
        return masks

    def check(self, f: fm.Formula, s: State) -> bool:
        """Evaluate a formula on a state whose bits follow the session's
        pair numbering (``scope``)."""
        letters, scope, kernel = self.masks.get(f) or self._masks(f)
        if kernel:
            return self.kernels.on_joint(f, s[2])
        s = (s[0], s[1], s[2] & letters, s[3] & scope)
        key = (f, s)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, fm.Not):
            result = not self.check(f.child, s)
        elif isinstance(f, fm.And):
            result = self.check(f.left, s) and self.check(f.right, s)
        elif isinstance(f, fm.Or):
            result = self.check(f.left, s) or self.check(f.right, s)
        elif isinstance(f, (fm.Diamond, fm.Box)):
            want = isinstance(f, fm.Diamond)
            child = f.child
            if f.mod is fm.Modality.B:
                found = bool(s[3] >> self.pair_bit[(child, want)] & 1)
            elif f.mod is fm.Modality.A:
                found = self.anchored(child, want, s[1], True)
            elif f.mod is fm.Modality.ABAR:
                found = self.anchored(child, want, s[0], False)
            else:
                # <Bi>/<Ei> read their child's letters
                found = any(
                    self.check(child, r) == want
                    for r in self.related(f.mod, s, self.scope(child), letters)
                )
            result = want == found
        else:
            raise FragmentError("the checker needs a normalized formula")
        self.memo[key] = result
        return result

    def first_violation(self, f: fm.Formula) -> Track | None:
        """A shortest initial track that violates the formula, the first in
        the breadth-first order of the initial tracks' states, or None.  At
        scope 0 the states are the initial state's witness table; above it
        the product is walked lazily, each state checked when it is
        dequeued.  Either walk is projected onto the formula's letters,
        which keeps the full walk's first violation and its track
        (``_Table``)."""
        letters, scope, _ = self.masks.get(f) or self._masks(f)
        if scope:
            parent: dict[State, State | None] = {}
            states = self.walk(self.starts(self.k.initial, True, letters), scope, parent)
        else:
            states = parent = self.table(self.k.initial, True, letters).parent
        for s in states:
            if not self.check(f, s):
                return _unwind(s, parent)
        return None

    def anchored(self, child: fm.Formula, want: bool, anchor: int, forward: bool) -> bool:
        """Whether some track from (forward) or into ``anchor`` has ``child
        == want``: the meets/met-by answer, shared by every state with that
        endpoint."""
        key = (child, want, anchor, forward)
        cached = self.anchored_memo.get(key)
        if cached is None:
            letters, scope, _ = self.masks.get(child) or self._masks(child)
            if not scope:
                states = self.table(anchor, forward, letters).parent
            elif forward:
                states = self.walk(self.starts(anchor, True, letters), scope, {})
            else:
                states = (s for s in self.reachable(scope, letters) if s[1] == anchor)
            cached = any(self.check(child, s) == want for s in states)
            self.anchored_memo[key] = cached
        return cached

    def related(
        self, mod: fm.Modality, s: State, scope: int = 0, letters: int = -1
    ) -> Iterator[State]:
        """The states, masked to ``scope``, of the tracks an inverse
        started-by/finishes relates to a track of state ``s``, possibly
        repeated.  ``s``'s bits lie within ``scope``.  At scope 0 the
        concatenations' joints are projected onto ``letters``, all of them
        by default."""
        M = fm.Modality
        if mod is M.BBAR and scope:
            yield from self.walk(self.successors(s, scope), scope, {})
            return
        v_in, v_fin, joint, _ = s
        label = self.k.label_mask
        if mod is M.BBAR:
            # t.v, then t followed by a track from v
            for v in self.k.successors(v_fin):
                yield (v_in, v, joint & label(v), 0)
                for _, b, j, _ in self.table(v, True, letters).parent:
                    yield (v_in, b, joint & j, 0)
        elif mod is M.EBAR and not scope:
            for u in self.k.predecessors(v_in):
                yield (u, v_fin, joint & label(u), 0)
                for b, _, j, _ in self.table(u, False, letters).parent:
                    yield (b, v_fin, joint & j, 0)
        else:
            raise FragmentError(f"no <{mod.value}> step at scope {scope}")

    def reachable(self, scope: int, letters: int = -1) -> tuple[State, ...]:
        """The states of every track of the structure, masked to ``scope``
        and projected onto ``letters``."""
        key = (scope, letters)
        if key not in self.reach_memo:
            starts = [s for u in range(self.k.n_states) for s in self.starts(u, True, letters)]
            self.reach_memo[key] = tuple(self.walk(starts, scope, {}))
        return self.reach_memo[key]

    def walk(
        self, starts: Iterable[State], scope: int, parent: dict, forward: bool = True
    ) -> Iterator[State]:
        """Breadth-first walk of the product masked to ``scope``, extending
        each track at the right when ``forward``, else, at scope 0 only, at
        the left.  A state is yielded before its successors are built, and
        ``parent`` maps it to the state it was first reached from (None for
        a start).  The walk keeps the letters of its starts' joints."""
        queue: deque[State] = deque()
        for s in starts:
            if s not in parent:
                parent[s] = None
                queue.append(s)
        labels = self.labels
        neighbours = self.k.successors if forward else self.k.predecessors
        while queue:
            s = queue.popleft()
            yield s
            v_in, v_fin, joint, bits = s
            if scope:
                bits = self.advance(s, scope)
            for v in neighbours(v_fin if forward else v_in):
                if forward:
                    nxt = (v_in, v, joint & labels[v], bits)
                else:
                    nxt = (v, v_fin, joint & labels[v], bits)
                if nxt not in parent:
                    parent[nxt] = s
                    queue.append(nxt)

    def starts(self, u: int, forward: bool = True, letters: int = -1) -> list[State]:
        """The states of the two-state tracks from (``forward``) or into
        ``u``, their joints projected onto ``letters``."""
        labels = self.labels
        if forward:
            return [(u, w, labels[u] & labels[w] & letters, 0) for w in self.k.successors(u)]
        return [(w, u, labels[w] & labels[u] & letters, 0) for w in self.k.predecessors(u)]

    def advance(self, s: State, scope: int) -> int:
        """The bits of every one-state extension: every pair of ``scope``
        that holds on the track itself is added.  The state's bits lie
        within ``scope``."""
        bits = s[3]
        todo = scope & ~bits
        while todo:
            low = todo & -todo
            child, want = self.pairs[low.bit_length() - 1]
            if self.check(child, s) == want:
                bits |= low
            todo ^= low
        return bits

    def successors(self, s: State, scope: int) -> list[State]:
        """The states of the one-state right extensions of a track of state
        ``s``: the step that ``walk`` inlines, taken once to start the walk
        over a track's extensions."""
        v_in, v_fin, joint, _ = s
        bits = self.advance(s, scope)
        labels = self.labels
        return [(v_in, v, joint & labels[v], bits) for v in self.k.successors(v_fin)]

    def satisfying(self, f: fm.Formula, anchor: int) -> dict[State, Witness]:
        """The classes of the tracks from ``anchor`` that satisfy the
        existential-fragment formula, each with the length of its shortest
        such track and a derivation of one for ``replay``.

        The fragment has ``&`` only inside kernels, so the classes compose:
        a kernel keeps the table classes whose joint passes it, ``|`` joins
        its children's maps, ``<A>``/``<Ai>`` keep every table class whose
        last/first state anchors/ends a satisfying track, and ``<B>``/
        ``<E>`` extend the child's classes by one state at a time.
        """
        found = self.witnesses.get((f, anchor))
        if found is not None:
            return found
        M = fm.Modality
        if fm.is_propositional(f):
            lengths: dict[State, int] = {}
            found = {}
            for c, parent in self.table(anchor, True).parent.items():
                n = lengths[c] = 2 if parent is None else lengths[parent] + 1
                if self.kernels.on_joint(f, c[2]):
                    found[c] = (n, None)
        elif isinstance(f, fm.Or):
            found = dict(self.satisfying(f.right, anchor))
            for c, witness in self.satisfying(f.left, anchor).items():
                if witness[0] <= found.get(c, witness)[0]:
                    found[c] = witness
        elif not isinstance(f, fm.Diamond) or f.mod not in (M.A, M.ABAR, M.B, M.E):
            raise FragmentError(
                "the counterexample engine handles the existential "
                "meets/met-by/starts/finishes fragment only"
            )
        elif f.mod is M.A:
            found = {
                c: witness
                for c, witness in self.satisfying(fm.TOP, anchor).items()
                if self.satisfying(f.child, c[1])
            }
        elif f.mod is M.B:
            found = self._extend(self.satisfying(f.child, anchor), True)
        else:
            # <Ai>/<E> read the child's classes at every anchor: decide
            # every anchor at once
            below: dict[State, Witness] = {}
            for u in range(self.k.n_states):
                below.update(self.satisfying(f.child, u))
            if f.mod is M.E:
                above = self._extend(below, False)
            else:
                ends = {c[1] for c in below}
                above = {
                    c: witness
                    for u in ends
                    for c, witness in self.satisfying(fm.TOP, u).items()
                }
            for u in range(self.k.n_states):
                self.witnesses[(f, u)] = {}
            for c, witness in above.items():
                self.witnesses[(f, c[0])][c] = witness
            return self.witnesses[(f, anchor)]
        self.witnesses[(f, anchor)] = found
        return found

    def _extend(
        self, seeds: dict[State, Witness], forward: bool
    ) -> dict[State, Witness]:
        """The classes of the tracks that extend a track of a seed class by
        one or more states, to the right when ``forward``, else to the
        left: a breadth-first walk over classes from seeds of many lengths,
        so each class is reached first by its shortest extension."""
        label = self.k.label_mask
        neighbours = self.k.successors if forward else self.k.predecessors
        todo: dict[int, list[tuple[State, Derivation]]] = {}
        for c, (n, how) in seeds.items():
            todo.setdefault(n, []).append((c, how))
        found: dict[State, Witness] = {}
        while todo:
            n = min(todo)
            for c, how in todo.pop(n):
                v_in, v_fin, joint, _ = c
                for v in neighbours(v_fin if forward else v_in):
                    if forward:
                        nxt = (v_in, v, joint & label(v), 0)
                    else:
                        nxt = (v, v_fin, joint & label(v), 0)
                    if nxt not in found:
                        step = (forward, c, how)
                        found[nxt] = (n + 1, step)
                        todo.setdefault(n + 1, []).append((nxt, step))
        return found

    def replay(self, c: State, how: Derivation) -> Track:
        """The track of class ``c`` that a derivation from ``satisfying``
        describes."""
        left: list[int] = []
        right: list[int] = []
        while how is not None:
            forward, previous, how = how
            if forward:
                right.append(c[1])
            else:
                left.append(c[0])
            c = previous
        middle = _unwind(c, self.table(c[0], True).parent)
        return Track((*left, *middle.states, *reversed(right)))


def _element_walk(
    structure: KripkeStructure, anchor: int, forward: bool
) -> dict[tuple[int, int, int], tuple[int, int, int] | None]:
    """The descriptor elements witnessed from (``forward``) or into the
    anchor, as ``(v_in, v_fin, internal)`` keys in breadth-first order, each
    mapped to the key it was first reached from: extending a track by one
    state turns its old boundary internal.  Breadth-first order keeps every
    realization within the 2 + |W|^2 bound.  Only the two functions below
    read it; the session walks classes, which the internal mask splits."""
    neighbours = structure.successors if forward else structure.predecessors
    side = 1 if forward else 0

    def key(boundary: int, internal: int) -> tuple[int, int, int]:
        return (anchor, boundary, internal) if forward else (boundary, anchor, internal)

    parent: dict = {key(w, 0): None for w in neighbours(anchor)}
    queue = deque(parent)
    while queue:
        e = queue.popleft()
        internal = e[2] | 1 << e[side]
        for v in neighbours(e[side]):
            nxt = key(v, internal)
            if nxt not in parent:
                parent[nxt] = e
                queue.append(nxt)
    return parent


def witnessed_elements(
    structure: KripkeStructure, anchor: int, forward: bool = True
) -> frozenset[DescriptorElement]:
    """All descriptor elements realized by some track starting (ending) at
    the anchor when forward (backward)."""
    return frozenset(
        DescriptorElement(v_in, internal, v_fin)
        for v_in, v_fin, internal in _element_walk(structure, anchor, forward)
    )


def realize_element(
    structure: KripkeStructure,
    anchor: int,
    element: DescriptorElement,
    forward: bool = True,
) -> Track:
    """A track of length at most 2 + |W|^2 that starts (ends) at the anchor
    when forward (backward) and realizes the element."""
    parent = _element_walk(structure, anchor, forward)
    key = (element.v_in, element.v_fin, element.internal)
    if key not in parent:
        raise KeyError(f"element {element} is not witnessed at this anchor")
    return _unwind(key, parent, forward)


def provide_counterex(
    structure: KripkeStructure, f: fm.Formula
) -> tuple[DescriptorElement, Track] | None:
    """Search for an initial track violating a universal-fragment formula.

    Returns the descriptor element and a shortest initial track on which
    the dual existential formula holds, the first such class in the
    breadth-first order of the initial state's classes, or None when the
    property is satisfied.
    """
    g = fm.normalize(f)
    if not fm.matches_forall_grammar(g):
        raise FragmentError(
            f"the conp engine expects a universal-fragment formula, got {fm.classify(g).value}"
        )
    session = Elements(structure)
    a = structure.initial
    found = session.satisfying(fm.to_exists_dual(g), a)
    rank = {c: i for i, c in enumerate(session.table(a, True).parent)}
    c = min(found, key=lambda c: (found[c][0], rank[c]), default=None)
    if c is None:
        return None
    track = session.replay(c, found[c][1])
    return descriptor_element(track), track
