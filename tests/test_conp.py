import random

import pytest

import hsmc.formula as fm
from hsmc import (
    DescriptorElement,
    automaton,
    FragmentError,
    KripkeStructure,
    OracleConfig,
    Track,
    build_bk_descriptor,
    clusters,
    concat_descr,
    descriptor_element,
    descriptor_sequence,
    normalize,
    oracle_eval,
    parse_dimacs,
    parse_formula,
    parse_kripke,
    provide_counterex,
    random_cnf,
    realize_element,
    sat_to_kripke,
    to_exists_dual,
    to_text,
    track_label,
    witnessed_elements,
)
from hsmc.oracle import _Oracle, all_tracks

from corpus import (
    assignment_satisfies,
    cnf_satisfiable,
    pair_free_stats,
    random_checker_formula,
    random_forall_formula,
    random_structure,
    random_walk,
)
from hsmc.conp import Elements, Kernels, _letters, _Table, _unwind, element_state, val


def _element(k, vin, inner, vfin):
    mask = 0
    for name in inner:
        mask |= 1 << k.state_index(name)
    return DescriptorElement(k.state_index(vin), mask, k.state_index(vfin))


def test_val_examples(k2, mutex):
    assert not val(parse_formula("p"), _element(k2, "v0", (), "v1"), k2)
    assert val(parse_formula("T"), _element(k2, "v0", (), "v1"), k2)
    assert val(parse_formula("r0 & r1"), _element(mutex, "w3", (), "w4"), mutex)
    assert not val(
        parse_formula("r0 & r1"), _element(mutex, "w3", ("w8", "w9"), "w0"), mutex
    )
    with pytest.raises(FragmentError):
        val(parse_formula("<A>p"), _element(k2, "v0", (), "v1"), k2)


def test_witnessed_elements_complete_graph(k2):
    got = witnessed_elements(k2, 0, forward=True)
    want = {
        DescriptorElement(0, mask, fin) for mask in range(4) for fin in (0, 1)
    }
    assert got == want


def test_witnessed_elements_chain():
    chain = parse_kripke("states: a b\ninit: a\nedges: a->b b->b\n")
    got = witnessed_elements(chain, 0, forward=True)
    assert got == {
        _element(chain, "a", (), "b"),
        _element(chain, "a", ("b",), "b"),
    }


def test_witnessed_elements_match_bounded_enumeration():
    rng = random.Random(61)
    for _ in range(15):
        k = random_structure(rng, max_states=3)
        bound = 2 + k.n_states**2
        for anchor in range(k.n_states):
            fwd = witnessed_elements(k, anchor, forward=True)
            brute = {
                descriptor_element(t) for t in all_tracks(k, anchor, bound)
            }
            assert fwd == brute
            bwd = witnessed_elements(k, anchor, forward=False)
            brute_b = {
                descriptor_element(t)
                for s in range(k.n_states)
                for t in all_tracks(k, s, bound)
                if t.lst == anchor
            }
            assert bwd == brute_b


def test_witnessed_elements_mutex_membership(mutex):
    got = witnessed_elements(mutex, mutex.state_index("w0"), forward=True)
    assert _element(mutex, "w0", (), "w1") in got
    assert _element(mutex, "w0", ("w1",), "w3") in got


def test_realizations_are_short_and_faithful():
    rng = random.Random(62)
    for _ in range(10):
        k = random_structure(rng, max_states=4)
        bound = 2 + k.n_states**2
        for anchor in range(k.n_states):
            for forward in (True, False):
                for element in witnessed_elements(k, anchor, forward):
                    track = realize_element(k, anchor, element, forward)
                    assert len(track) <= bound
                    assert descriptor_element(track) == element
                    for a, b in zip(track.states, track.states[1:]):
                        assert k.has_edge(a, b)


def test_realizations_reuse_the_walk_that_listed_them(monkeypatch):
    # realizing every element of an anchor would be quadratic if each call
    # walked the anchor's elements again
    k = random_structure(random.Random(64), max_states=4, edge_prob=0.6)
    steps = []
    successors = k.successors
    monkeypatch.setattr(k, "successors", lambda u: steps.append(u) or successors(u))
    for anchor in range(k.n_states):
        elements = witnessed_elements(k, anchor)
        walked = len(steps)
        assert walked and all(realize_element(k, anchor, d) for d in elements)
        assert len(steps) == walked
        steps.clear()


def test_concat_descr():
    d1 = DescriptorElement(0, 0, 1)
    d2 = DescriptorElement(2, 0, 3)
    assert concat_descr(d1, d2) == DescriptorElement(0, 0b110, 3)
    a, b = DescriptorElement(0, 0, 1), DescriptorElement(1, 0, 0)
    assert concat_descr(a, b) == DescriptorElement(0, 0b10, 0)


def test_concat_descr_matches_track_concatenation():
    rng = random.Random(63)
    checked = 0
    while checked < 80:
        k = random_structure(rng)
        left = random_walk(rng, k, rng.randint(2, 6))
        right = random_walk(rng, k, rng.randint(2, 6))
        if not k.has_edge(left.lst, right.fst):
            continue
        whole = Track(left.states + right.states)
        assert descriptor_element(whole) == concat_descr(
            descriptor_element(left), descriptor_element(right)
        )
        checked += 1


def _class(k, track):
    return element_state(k, descriptor_element(track))


def _satisfied(k, text, d):
    # whether some track of the descriptor element's class from its first
    # state satisfies the existential formula, by the session's class search
    f = normalize(parse_formula(text))
    return element_state(k, d) in Elements(k).satisfying(f, d.v_in)


def test_check_exists_basics(k2, mutex):
    assert not _satisfied(k2, "F", _element(k2, "v0", (), "v1"))
    assert _satisfied(k2, "<A>q", _element(k2, "v0", (), "v1"))
    # some initial track reaches the joint-grant pair of states
    d = _element(mutex, "w0", ("w1", "w3", "w8"), "w9")
    assert d in witnessed_elements(mutex, mutex.state_index("w0"), True)
    assert _satisfied(mutex, "<E>(e0 & e1)", d)


def test_check_exists_agrees_with_oracle(k2):
    config = OracleConfig(8)
    texts = ["<A>q", "<B>p", "<E>q", "<Ai>p", "p | <B>(p & q)", "q"]
    for text in texts:
        f = normalize(parse_formula(text))
        for element in witnessed_elements(k2, 0, True):
            c = element_state(k2, element)
            want = any(
                oracle_eval(k2, t, f, config)
                for t in all_tracks(k2, 0, 8)
                if _class(k2, t) == c
            )
            assert _satisfied(k2, text, element) == want, (text, element)


def test_exists_witness_properties(mutex):
    f = normalize(parse_formula("<E>(e0 & e1)"))
    d = _element(mutex, "w0", ("w1", "w3", "w8"), "w9")
    session = Elements(mutex)
    c = element_state(mutex, d)
    length, how = session.satisfying(f, c[0])[c]
    witness = mutex.track(session.replay(c, how).states)  # edges checked
    assert _class(mutex, witness) == c and len(witness) == length
    assert oracle_eval(mutex, witness, f, OracleConfig(6))


def test_satisfying_classes_are_exact_and_shortest():
    # Elements.satisfying maps each class with a track from the anchor that
    # satisfies the existential formula to its shortest such length: each
    # entry replays to such a track, and every such track of up to 8 states
    # has its class there at no greater length.  On the existential
    # formula an oracle True is definitive at any depth
    rng = random.Random(69)
    checked = modal = 0
    while checked < 60:
        k = random_structure(rng, max_states=3)
        g = to_exists_dual(normalize(random_forall_formula(rng, [*k.propositions, "zz"])))
        session = Elements(k)
        oracle = _Oracle(k, OracleConfig(8))
        for anchor in range(k.n_states):
            found = session.satisfying(g, anchor)
            for c, (length, how) in found.items():
                track = k.track(session.replay(c, how).states)  # edges checked
                assert track.fst == anchor and _class(k, track) == c
                assert len(track) == length, (to_text(g), c, track)
                assert oracle.eval(track.states, g), (to_text(g), track)
            for track in all_tracks(k, anchor, 8):
                if oracle.eval(track.states, g):
                    c = _class(k, track)
                    assert c in found, (to_text(g), track)
                    assert found[c][0] <= len(track), (to_text(g), track)
        checked += 1
        modal += not fm.is_propositional(g)
    assert modal >= 30


def test_provide_counterex_mutex(mutex):
    found = provide_counterex(mutex, parse_formula("[E]!(e0 & e1)"))
    assert found is not None
    element, track = found
    assert track.fst == mutex.initial
    assert descriptor_element(track) == element
    dual = to_exists_dual(normalize(parse_formula("[E]!(e0 & e1)")))
    assert oracle_eval(mutex, track, dual, OracleConfig(6))


def test_provide_counterex_tautology(k2):
    assert provide_counterex(k2, parse_formula("[A]T")) is None


def test_provide_counterex_fragment_error(k2):
    with pytest.raises(FragmentError):
        provide_counterex(k2, parse_formula("<A>p"))


def test_provide_counterex_reports_a_shortest_track():
    # the dual needs a proper prefix that has a proper prefix: four states
    cycle = parse_kripke("states: s0 s1\ninit: s0\nedges: s0->s1 s1->s0\n")
    f = parse_formula("[B](T & [B](zz & zz))")
    _, track = provide_counterex(cycle, f)
    assert cycle.track_str(track) == "s0 s1 s0 s1"
    assert automaton.mod_check(cycle, f).counterexample == track


def _twenty_states() -> KripkeStructure:
    # out-degree 3, each letter set with probability 0.6
    rng = random.Random(20)
    names = [f"s{i}" for i in range(20)]
    props = ["p0", "p1", "p2"]
    edges = [(u, v) for u in names for v in rng.sample(names, 3)]
    labels = {u: [p for p in props if rng.random() < 0.6] for u in names}
    return KripkeStructure(names, edges, names[0], labels, props)


@pytest.mark.parametrize(
    "text", ["[A][B][E](p1 | !p2)", "[B][E](p0 | p1 | p2)", "[E][B](p0 | p1)"]
)
def test_provide_counterex_scales_to_twenty_states(text):
    # nested started-by/finishes over 20 states: decided on classes in
    # milliseconds, and each counterexample is refuted by the oracle
    structure = _twenty_states()
    g = normalize(parse_formula(text))
    found = provide_counterex(structure, g)
    assert found is not None
    _, track = found
    assert track.fst == structure.initial
    dual = to_exists_dual(g)
    assert any(oracle_eval(structure, track, dual, OracleConfig(d)) for d in (4, 8))


def test_propositional_counterexample_reads_back(k2):
    # gamma = !(q): fails exactly on all-q initial tracks; K2 starts at the
    # p-state so every initial track falsifying gamma must satisfy q, which
    # is impossible; the dual direction uses p instead
    found = provide_counterex(k2, parse_formula("!p"))
    assert found is not None
    _, track = found
    assert "p" in track_label(k2, track)


def _picked_by_the_class_search(structure, g):
    """The track the class search picks for a universal formula: of the
    classes on which its dual holds, the least by the length of its shortest
    such track, then by rank in the initial table's breadth-first order."""
    session = Elements(structure)
    a = structure.initial
    found = session.satisfying(to_exists_dual(g), a)
    rank = {c: i for i, c in enumerate(session.table(a, True).parent)}
    c = min(found, key=lambda c: (found[c][0], rank[c]), default=None)
    return None if c is None else session.replay(c, found[c][1])


def _counterexample_track(structure, g):
    found = provide_counterex(structure, g)
    if found is None:
        return None
    element, track = found
    assert descriptor_element(track) == element
    return track


def test_propositional_counterexamples_are_the_class_searchs_choice():
    # provide_counterex answers a propositional formula with the first
    # violation of the initial walk, without composing classes
    rng = random.Random(3600)
    lengths = []
    for _ in range(400):
        k = random_structure(rng, max_states=6, max_props=4, edge_prob=0.25)
        g = normalize(random_checker_formula(rng, list(k.propositions), max_modalities=0))
        assert fm.is_propositional(g)
        track = _counterexample_track(k, g)
        assert track == _picked_by_the_class_search(k, g), to_text(g)
        lengths.append(0 if track is None else len(track))
    # held, violated by a two-state track, and violated only by longer ones
    assert lengths.count(0) >= 100 and lengths.count(2) >= 100
    assert sum(n > 2 for n in lengths) >= 10


def test_sat_counterexamples_are_the_class_searchs_choice():
    rng = random.Random(3601)
    outcomes = set()
    for n in range(8, 13):
        for m in (n // 3, n // 2, n, 2 * n):
            cnf = random_cnf(rng, n, m)
            structure, gamma = sat_to_kripke(cnf)
            g = normalize(gamma)
            track = _counterexample_track(structure, g)
            assert track == _picked_by_the_class_search(structure, g)
            assert (track is not None) == cnf_satisfiable(cnf)
            if track is not None:
                letters = track_label(structure, track)
                env = {i: f"x{i}" in letters for i in range(1, n + 1)}
                assert assignment_satisfies(cnf, env)
            outcomes.add(None if track is None else len(track))
    # unsatisfiable instances, and witnesses from two states to n + 1
    assert None in outcomes and {2, 13} <= outcomes


def test_a_propositional_violation_stops_the_initial_walk(monkeypatch):
    # all-true satisfies the CNF, so the first initial track, w0 w1_t,
    # spells a satisfying assignment; the initial table has 2^11 - 2 classes
    structure, gamma = sat_to_kripke(parse_dimacs("p cnf 10 3\n1 -2 0\n3 4 0\n-5 6 0\n"))
    full = len(Elements(structure).table(structure.initial, True).parent)
    assert full == 2**11 - 2
    visited = []
    walk = Elements.walk

    def counted(self, *args):
        for s in walk(self, *args):
            visited.append(s)
            yield s

    monkeypatch.setattr(Elements, "walk", counted)
    track = Elements(structure).first_violation(normalize(gamma))
    assert structure.track_str(track) == "w0 w1_t"
    assert 0 < len(visited) < full
    visited.clear()
    assert provide_counterex(structure, gamma)[1] == track
    assert 0 < len(visited) < full


@pytest.mark.parametrize("name, count", [("k2", 60), ("mutex", 8)])
def test_compiled_kernels_agree_with_oracle_on_every_witnessed_element(
    request, name, count
):
    # "zz" labels no state, so it is false on every track
    structure = request.getfixturevalue(name)
    props = [*structure.propositions, "zz"]
    rng = random.Random(65)
    tracks = {
        d: realize_element(structure, a, d)
        for a in range(structure.n_states)
        for d in witnessed_elements(structure, a)
    }
    session = Kernels(structure)
    for _ in range(count):
        f = random_checker_formula(rng, props, max_modalities=0)
        for d, track in tracks.items():
            want = oracle_eval(structure, track, f)
            assert session.on_joint(f, element_state(structure, d)[2]) == want, (to_text(f), d)
            assert val(f, d, structure) == want


def test_kernel_raises_on_modalities_after_a_deciding_letter(k2):
    d = _element(k2, "v0", (), "v1")
    for text in ("T | <A>p", "F & [A]q", "!(T | <B>p)"):
        with pytest.raises(FragmentError):
            val(parse_formula(text), d, k2)


def test_element_check_sends_a_propositional_and_to_the_kernel_whole(mutex):
    session = Elements(mutex)
    sent = []
    on_joint = session.kernels.on_joint
    session.kernels.on_joint = lambda f, j: sent.append(f) or on_joint(f, j)
    f = normalize(parse_formula("r0 & (r1 | !e0) & !(x0 & e1)"))
    d = _element(mutex, "w1", ("w3",), "w4")
    track = realize_element(mutex, d.v_in, d)
    assert session.check(f, element_state(mutex, d)) == oracle_eval(mutex, track, f)
    assert sent == [f]


def _joint(k, states):
    joint = -1
    for v in states:
        joint &= k.label_mask(v)
    return joint


def test_packed_elements_carry_their_joint_label_mask():
    # element_state, the table walk and the inverse clauses' extensions
    # each build the joint from pieces; every witnessed element's and every
    # table state's joint must be the AND of the labels of all of its
    # track's states, and every class the inverse clauses yield must be the
    # class of a witnessed track.  That the classes are exactly those of
    # the extensions is checked in test_checker.py
    rng = random.Random(66)
    for _ in range(40):
        k = random_structure(rng, max_states=4, max_props=3)
        elements = Elements(k)
        states = []
        witnessed = {}
        for anchor in range(k.n_states):
            for forward in (True, False):
                for d in witnessed_elements(k, anchor, forward):
                    inner = [v for v in range(k.n_states) if d.internal >> v & 1]
                    assert element_state(k, d)[2] == _joint(k, [d.v_in, *inner, d.v_fin]), d
                parent = elements.table(anchor, forward).parent
                for s in parent:
                    assert s[2] == _joint(k, _unwind(s, parent, forward).states), s
                    states.append(s)
                    witnessed.setdefault(forward, set()).add(s)
        sample = rng.sample(states, min(8, len(states)))
        for s in sample:
            for mod, forward in ((fm.Modality.BBAR, True), (fm.Modality.EBAR, False)):
                for r in elements.related(mod, s):
                    assert r in witnessed[forward], (mod, s, r)


def test_elements_of_one_class_agree_on_started_by_free_formulas():
    # a started-by-free formula reads only an element's class (v_in, v_fin,
    # joint): elements that differ only in their internal mask get one
    # oracle verdict on their realizations, and Elements.check on the
    # class gives that verdict
    rng = random.Random(73)
    shared = 0
    for _ in range(40):
        k = random_structure(rng, max_states=3)
        limit = pair_free_stats(k, 0)[0]
        if limit > 9:
            continue
        config = OracleConfig(depth_bound=limit + 1)
        elements = Elements(k)
        by_class = {}
        for anchor in range(k.n_states):
            for d in witnessed_elements(k, anchor):
                by_class.setdefault(element_state(k, d), []).append(realize_element(k, anchor, d))
        groups = {c: tracks for c, tracks in by_class.items() if len(tracks) > 1}
        shared += len(groups)
        for _ in range(4):
            g = normalize(random_checker_formula(rng, [*k.propositions, "zz"], max_nest=0))
            for c, tracks in groups.items():
                truths = {oracle_eval(k, t, g, config) for t in tracks}
                assert truths == {elements.check(g, c)}, (to_text(g), c, tracks)
    assert shared >= 80  # classes that merge several elements are exercised


def test_element_check_raises_on_formulas_outside_the_evaluator(k2):
    # a formula outside A Ai B Bi Ei, <Ei> over started-by or an unnormalized
    # formula raises, even where the evaluation would read only a bit or
    # one side of a connective
    outside = ["<Ei><B>p", "<E>p", "<D>p", "<B><Ei>[B]q"]
    unnormalized = ["<A>p -> q", "<A>p & (q -> p)", "<B>(p -> <A>q)", "<B>^2 p", "<L>p"]
    formulas = [normalize(parse_formula(t)) for t in outside]
    formulas += [parse_formula(t) for t in unnormalized]
    for f in formulas:
        for bits in (0, 1):
            with pytest.raises(FragmentError):
                Elements(k2).check(f, (0, 1, 0, bits))


def test_element_memo_entries_are_masked_to_letters(mutex, sched):
    # a subformula is read on its class with the joint masked to the
    # letters it reads, not counting those below <A>/<Ai>, so classes that
    # differ only in other letters share one memo entry
    for structure, text, read in (
        (mutex, "[A](r0 -> <Bi>(e0 | [Ai]x0)) & <Ei>(r1 & !e1)", ("r1", "e1")),
        (sched, "<Bi>(p1 & [A]p2) | [Ei](p3 | <Ai>!p1)", ("p1", "p3")),
    ):
        g = normalize(parse_formula(text))
        session = Elements(structure)
        for anchor in range(structure.n_states):
            for s in session.table(anchor, True).parent:
                session.check(g, s)
        assert session.masks[g][0] == sum(map(structure.prop_mask, read))
        assert session.memo
        for f, c in session.memo:
            assert c[2] & ~_letters(f, structure) == 0, (to_text(f), c)


class _FullTables(Elements):
    """A session whose walks ignore the letters they are projected onto."""

    def starts(self, u, forward=True, letters=-1):
        return super().starts(u, forward)


def test_projected_tables_are_the_projections_of_the_full_table():
    # every walk is projected at its starts onto the letters of the formula
    # it serves.  A projected table's classes must be the projections of
    # the full table's, in breadth-first order, each realized by the track
    # of the first full class that projects to it; so a consumer's verdicts
    # and the first violation's track are those of the full walks, on the
    # tables and, for formulas with started-by, on the product.  A letter
    # of the initial state is or-ed onto each random formula, so that short
    # tracks tend to satisfy it
    rng = random.Random(75)
    paired_rng = random.Random(76)
    projected = longer = paired = paired_violated = paired_projected = 0
    for _ in range(150):
        k = random_structure(rng, max_states=5, max_props=3)
        full_letters = sum(map(k.prop_mask, k.propositions))
        props = [*k.propositions, "zz"]
        mine = [fm.Prop(p) for p in sorted(k.label_set(k.initial))] or [fm.BOTTOM]
        formulas = [
            normalize(
                fm.Or(
                    rng.choice(mine),
                    random_checker_formula(rng, props, max_modalities=4, max_nest=0),
                )
            )
            for _ in range(4)
        ]
        session = Elements(k)
        for g in formulas:
            reference = _FullTables(k)
            expected = reference.first_violation(g)
            assert session.first_violation(g) == expected, to_text(g)
            longer += expected is not None and len(expected) > 2
            for c in reference.reachable(0):
                assert session.check(g, c) == reference.check(g, c), (to_text(g), c)
        for _ in range(4):
            g = normalize(
                fm.Or(
                    paired_rng.choice(mine),
                    random_checker_formula(paired_rng, props, max_modalities=4, max_nest=2),
                )
            )
            if not automaton.in_fragment(g) or not session.scope(g):
                continue
            expected = _FullTables(k).first_violation(g)
            assert session.first_violation(g) == expected, to_text(g)
            paired += 1
            paired_violated += expected is not None
            paired_projected += session.masks[g][0] & full_letters != full_letters
        masks = {letters for letters, _, _ in session.masks.values()}
        for anchor in range(k.n_states):
            for forward in (True, False):
                full = _Table(session, anchor, forward)
                for letters in masks:
                    first = {}
                    for s in full.parent:
                        first.setdefault((s[0], s[1], s[2] & letters, 0), s)
                    table = _Table(session, anchor, forward, letters)
                    assert list(table.parent) == list(first), letters
                    for s, origin in first.items():
                        track = _unwind(s, table.parent, forward)
                        assert track == _unwind(origin, full.parent, forward), (s, origin)
                    projected += len(first) < len(full.parent)
    assert projected >= 200  # projections that merge full classes are exercised
    assert longer >= 15  # violations longer than two states are exercised
    # product walks with started-by pairs, violated and not, are exercised,
    # many of them projected onto fewer letters than the structure has
    assert paired_projected >= 40, paired_projected
    assert 20 <= paired_violated <= paired - 20, (paired, paired_violated)


def test_element_check_agrees_with_oracle_on_every_witnessed_class():
    # the witness tables realize each class they reach by a track of that
    # class, and Elements.check gives the oracle's verdict on it
    rng = random.Random(74)
    tested = 0
    while tested < 60:
        k = random_structure(rng, max_states=4, max_props=3)
        stats = pair_free_stats(k, 0, cap_count=20_000)
        if stats is None or stats[0] > 9:
            continue
        tested += 1
        config = OracleConfig(depth_bound=stats[0] + 1)
        elements = Elements(k)
        tracks = {}
        for anchor in range(k.n_states):
            for forward in (True, False):
                parent = elements.table(anchor, forward).parent
                for c in parent:
                    track = k.track(_unwind(c, parent, forward).states)  # edges checked
                    assert (track.fst if forward else track.lst) == anchor, (track, c)
                    assert element_state(k, descriptor_element(track)) == c, (track, c)
                    tracks[c] = track
        for _ in range(6):
            g = normalize(random_checker_formula(rng, [*k.propositions, "zz"], max_nest=0))
            for c, track in tracks.items():
                assert elements.check(g, c) == oracle_eval(k, track, g, config), (
                    to_text(g),
                    c,
                )


def test_packed_table_elements_are_the_packed_brute_force_elements():
    # the witnessed elements are exactly those of the bounded tracks, each
    # realized by a track of its own, and the witness table's states are
    # exactly the states of those tracks
    rng = random.Random(67)
    for _ in range(15):
        k = random_structure(rng, max_states=3, max_props=3)
        session = Elements(k)
        bound = 2 + k.n_states**2
        tracks = [t for s in range(k.n_states) for t in all_tracks(k, s, bound)]
        for anchor in range(k.n_states):
            for forward in (True, False):
                got = witnessed_elements(k, anchor, forward)
                ends = [t for t in tracks if (t.fst if forward else t.lst) == anchor]
                assert got == {descriptor_element(t) for t in ends}
                states = set(session.table(anchor, forward).parent)
                assert states == {element_state(k, descriptor_element(t)) for t in ends}
                assert states == {element_state(k, d) for d in got}
                for d in got:
                    assert descriptor_element(realize_element(k, anchor, d, forward)) == d


def test_meets_over_a_propositional_child_reads_each_distinct_joint_once():
    # <A>/<Ai> over a propositional child is decided on the distinct joints
    # of the endpoint's table; it must agree with the loop over every
    # element and with the oracle on the realizing tracks
    rng = random.Random(68)
    for _ in range(30):
        k = random_structure(rng, max_states=4, max_props=3)
        props = [*k.propositions, "zz"]
        elements = Elements(k)
        starts = [element_state(k, d) for a in range(k.n_states) for d in witnessed_elements(k, a)]
        realized = {
            (anchor, forward): {
                d: realize_element(k, anchor, d, forward)
                for d in witnessed_elements(k, anchor, forward)
            }
            for anchor in range(k.n_states)
            for forward in (True, False)
        }
        for _ in range(4):
            f = normalize(random_checker_formula(rng, props, max_modalities=0))
            for anchor in range(k.n_states):
                for forward, mod in ((True, fm.Modality.A), (False, fm.Modality.ABAR)):
                    tracks = realized[(anchor, forward)]
                    truths = {oracle_eval(k, t, f) for t in tracks.values()}
                    for want in (True, False):
                        per_element = any(
                            elements.check(f, element_state(k, d)) == want for d in tracks
                        )
                        assert per_element == (want in truths)
                        got = elements.anchored(f, want, anchor, forward)
                        assert got == per_element, (to_text(f), anchor, forward, want)
                    for c in starts:
                        if c[1 if forward else 0] == anchor:
                            witnessed = elements.satisfying(fm.Diamond(mod, f), c[0])
                            assert (c in witnessed) == (True in truths), (to_text(f), c)


def test_public_api_speaks_descriptor_elements(k2):
    d = _element(k2, "v0", (), "v1")
    assert all(type(e) is DescriptorElement for e in witnessed_elements(k2, 0))
    assert all(type(e) is DescriptorElement for e in witnessed_elements(k2, 0, False))
    element, track = provide_counterex(k2, parse_formula("[A]q"))
    assert type(element) is DescriptorElement
    assert descriptor_element(track) == element
    assert realize_element(k2, 0, d) == Track((0, 1))
    assert not val(parse_formula("p"), d, k2)
    assert type(concat_descr(d, d)) is DescriptorElement
    assert d.format(k2) == "(v0,{},v1)"
    walk = k2.track("v0 v1 v1 v1")
    assert type(build_bk_descriptor(k2, walk, 1).element) is DescriptorElement
    for cluster in clusters(descriptor_sequence(walk)):
        assert all(type(m) is DescriptorElement for m in cluster.members)
