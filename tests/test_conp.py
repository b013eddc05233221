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
    parse_formula,
    parse_kripke,
    provide_counterex,
    realize_element,
    to_exists_dual,
    to_text,
    track_label,
    witnessed_elements,
)
from hsmc.oracle import _Oracle, all_tracks

from corpus import (
    pair_free_stats,
    random_checker_formula,
    random_forall_formula,
    random_structure,
    random_walk,
)
from hsmc.conp import Elements, Kernels, _letters, _Table, pack, unpack, val


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


def _element_class(k, d):
    e = pack(k, d)
    return (e[0], e[2], e[3])


def _class(k, track):
    return _element_class(k, descriptor_element(track))


def _satisfied(k, text, d):
    # whether some track of the descriptor element's class from its first
    # state satisfies the existential formula, by the session's class search
    f = normalize(parse_formula(text))
    return _element_class(k, d) in Elements(k).satisfying(f, d.v_in)


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
            c = _element_class(k2, element)
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
    c = _element_class(mutex, d)
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


@pytest.mark.parametrize("name, count", [("k2", 60), ("mutex", 8)])
def test_compiled_kernels_agree_with_oracle_on_every_witnessed_element(
    request, name, count
):
    # "zz" labels no state, so it is false on every track
    structure = request.getfixturevalue(name)
    props = [*structure.propositions, "zz"]
    rng = random.Random(65)
    tracks = {
        d: table.realize(d)
        for table in (_Table(structure, a, True) for a in range(structure.n_states))
        for d in table.elements()
    }
    session = Kernels(structure)
    for _ in range(count):
        f = random_checker_formula(rng, props, max_modalities=0)
        for d, track in tracks.items():
            want = oracle_eval(structure, track, f)
            assert session.on_joint(f, d[3]) == want, (to_text(f), d)
            assert val(f, unpack(d), structure) == want


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
    d = pack(mutex, _element(mutex, "w1", ("w3",), "w4"))
    track = _Table(mutex, d[0], True).realize(d)
    assert session.check(f, (d[0], d[2], d[3], 0)) == oracle_eval(mutex, track, f)
    assert sent == [f]


def _joint(k, element):
    v_in, internal, v_fin = element[:3]
    return k.joint_label_mask(internal) & k.label_mask(v_in) & k.label_mask(v_fin)


def test_packed_elements_carry_their_joint_label_mask():
    # the table walk and the inverse clauses' extensions each build the
    # joint from pieces; every table element's joint must be the AND of
    # the labels of all of its states, and every class the inverse clauses
    # yield must be the class of a witnessed track.  That the classes are
    # exactly those of the extensions is checked in test_checker.py
    rng = random.Random(66)
    for _ in range(40):
        k = random_structure(rng, max_states=4, max_props=3)
        elements = Elements(k)
        packed = []
        witnessed = {}
        for anchor in range(k.n_states):
            for forward in (True, False):
                for e in _Table(k, anchor, forward).elements():
                    assert e[3] == _joint(k, e), e
                    packed.append(e)
                    witnessed.setdefault(forward, set()).add((e[0], e[2], e[3]))
        sample = rng.sample(packed, min(8, len(packed)))
        for e in sample:
            for mod, forward in ((fm.Modality.BBAR, True), (fm.Modality.EBAR, False)):
                for r in elements.related(mod, (e[0], e[2], e[3], 0)):
                    assert r[:3] in witnessed[forward] and not r[3], (mod, e, r)


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
            table = _Table(k, anchor, True)
            for e in table.elements():
                by_class.setdefault((e[0], e[2], e[3], 0), []).append(table.realize(e))
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
            for j, b in session.table(anchor, True).parent:
                session.check(g, (anchor, b, j, 0))
        assert session.masks[g][0] == sum(map(structure.prop_mask, read))
        assert session.memo
        for f, c in session.memo:
            assert c[2] & ~_letters(f, structure) == 0, (to_text(f), c)


class _FullTables(Elements):
    """A session whose consumers read the all-letter tables."""

    def table(self, anchor, forward, letters=-1):
        return super().table(anchor, forward)


def test_projected_tables_are_the_projections_of_the_full_table():
    # a consumer reads the table projected onto the letters of the formula
    # it evaluates.  Its classes must be the projections of the full
    # table's, in breadth-first order, each realized by the track of the
    # first full class that projects to it; so a consumer's verdicts and
    # the initial violation's track are those of the full tables.  A letter
    # of the initial state is or-ed onto each random formula, so that short
    # tracks tend to satisfy it
    rng = random.Random(75)
    projected = longer = 0
    for _ in range(150):
        k = random_structure(rng, max_states=5, max_props=3)
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
            expected = reference.initial_violation(g)
            assert session.initial_violation(g) == expected, to_text(g)
            longer += expected is not None and len(expected) > 2
            for c in reference.reachable(0):
                assert session.check(g, c) == reference.check(g, c), (to_text(g), c)
        masks = {letters for letters, _, _ in session.masks.values()}
        for anchor in range(k.n_states):
            for forward in (True, False):
                full = _Table(k, anchor, forward, True)
                for letters in masks:
                    first = {}
                    for j, b in full.parent:
                        first.setdefault((j & letters, b), (j, b))
                    table = _Table(k, anchor, forward, True, letters)
                    assert list(table.parent) == list(first), letters
                    for key, origin in first.items():
                        assert table.track(key) == full.track(origin), (key, origin)
                    projected += len(first) < len(full.parent)
    assert projected >= 200  # projections that merge full classes are exercised
    assert longer >= 15  # violations longer than two states are exercised


def test_element_check_agrees_with_oracle_on_every_witnessed_class():
    # the joint-keyed walk realizes each class it reaches by a track of
    # that class, and Elements.check gives the oracle's verdict on it
    def class_of(track):
        e = pack(k, descriptor_element(track))
        return (e[0], e[2], e[3], 0)

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
                table = elements.table(anchor, forward)
                for key in table.parent:
                    track = table.track(key)
                    c = class_of(track)
                    j, b = key
                    want = (anchor, b, j, 0) if forward else (b, anchor, j, 0)
                    assert c == want, (track, key)
                    tracks[c] = track
        for _ in range(6):
            g = normalize(random_checker_formula(rng, [*k.propositions, "zz"], max_nest=0))
            for c, track in tracks.items():
                assert elements.check(g, c) == oracle_eval(k, track, g, config), (
                    to_text(g),
                    c,
                )


def test_packed_table_elements_are_the_packed_brute_force_elements():
    # unpacking a table's elements gives exactly the witnessed triples, and
    # packing the element of every bounded track gives the table's elements
    rng = random.Random(67)
    for _ in range(15):
        k = random_structure(rng, max_states=3, max_props=3)
        bound = 2 + k.n_states**2
        tracks = [t for s in range(k.n_states) for t in all_tracks(k, s, bound)]
        for anchor in range(k.n_states):
            for forward in (True, False):
                table = _Table(k, anchor, forward)
                got = table.elements()
                assert list(got) == sorted(set(got), key=lambda e: (e[1], e[0], e[2]))
                assert frozenset(map(unpack, got)) == witnessed_elements(k, anchor, forward)
                ends = [t for t in tracks if (t.fst if forward else t.lst) == anchor]
                assert set(got) == {pack(k, descriptor_element(t)) for t in ends}
                for e in got:
                    assert descriptor_element(table.realize(e)) == unpack(e)


def test_meets_over_a_propositional_child_reads_each_distinct_joint_once():
    # <A>/<Ai> over a propositional child is decided on the distinct joints
    # of the endpoint's table; it must agree with the loop over every
    # element and with the oracle on the realizing tracks
    rng = random.Random(68)
    for _ in range(30):
        k = random_structure(rng, max_states=4, max_props=3)
        props = [*k.propositions, "zz"]
        elements = Elements(k)
        starts = [e for a in range(k.n_states) for e in _Table(k, a, True).elements()]
        for _ in range(4):
            f = normalize(random_checker_formula(rng, props, max_modalities=0))
            for anchor in range(k.n_states):
                for forward, mod in ((True, fm.Modality.A), (False, fm.Modality.ABAR)):
                    table = _Table(k, anchor, forward)
                    truths = {oracle_eval(k, table.realize(e), f) for e in table.elements()}
                    for want in (True, False):
                        per_element = any(
                            elements.check(f, (e[0], e[2], e[3], 0)) == want
                            for e in table.elements()
                        )
                        assert per_element == (want in truths)
                        got = elements.anchored(f, want, anchor, forward)
                        assert got == per_element, (to_text(f), anchor, forward, want)
                    for d in starts:
                        if d[2 if forward else 0] == anchor:
                            witnessed = elements.satisfying(fm.Diamond(mod, f), d[0])
                            found = (d[0], d[2], d[3]) in witnessed
                            assert found == (True in truths), (to_text(f), d)


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
