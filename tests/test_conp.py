import random

import pytest

from hsmc import (
    DescriptorElement,
    FragmentError,
    OracleConfig,
    Track,
    check_exists,
    concat_descr,
    descriptor_element,
    exists_witness,
    normalize,
    oracle_eval,
    oracle_mod_check,
    parse_formula,
    provide_counterex,
    realize_element,
    to_exists_dual,
    to_text,
    track_label,
    witnessed_elements,
)
from hsmc.oracle import all_tracks

from corpus import (
    random_checker_formula,
    random_forall_formula,
    random_structure,
    random_walk,
)
from hsmc.checker import _Checker
from hsmc.conp import Kernels, _Table, val


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
    from hsmc import parse_kripke

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


def test_masks_by_boundary_index_the_elements():
    # the split search reads masks_by_boundary; it must list, per boundary
    # state (final going forward, first going backward), the internal masks
    # of exactly the witnessed elements with that boundary
    rng = random.Random(63)
    for _ in range(15):
        k = random_structure(rng, max_states=3)
        for anchor in range(k.n_states):
            for forward in (True, False):
                table = _Table(k, anchor, forward)
                want: dict[int, list[int]] = {}
                for d in table.elements():
                    boundary = d.v_fin if forward else d.v_in
                    want.setdefault(boundary, []).append(d.internal)
                got = {b: sorted(masks) for b, masks in table.masks_by_boundary.items()}
                assert got == {b: sorted(masks) for b, masks in want.items()}


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


def test_check_exists_basics(k2, mutex):
    assert not check_exists(k2, parse_formula("F"), _element(k2, "v0", (), "v1"))
    assert check_exists(k2, parse_formula("<A>q"), _element(k2, "v0", (), "v1"))
    # some initial track reaches the joint-grant pair of states
    d = _element(mutex, "w0", ("w1", "w3", "w8"), "w9")
    assert d in witnessed_elements(mutex, mutex.state_index("w0"), True)
    assert check_exists(mutex, parse_formula("<E>(e0 & e1)"), d)


def test_check_exists_agrees_with_oracle(k2):
    config = OracleConfig(8)
    texts = ["<A>q", "<B>p", "<E>q", "<Ai>p", "p | <B>(p & q)", "q"]
    for text in texts:
        f = normalize(parse_formula(text))
        for element in witnessed_elements(k2, 0, True):
            want = any(
                oracle_eval(k2, t, f, config)
                for t in all_tracks(k2, 0, 8)
                if descriptor_element(t) == element
            )
            assert check_exists(k2, f, element) == want, (text, element)


def test_exists_witness_properties(mutex):
    f = normalize(parse_formula("<E>(e0 & e1)"))
    d = _element(mutex, "w0", ("w1", "w3", "w8"), "w9")
    witness = exists_witness(mutex, f, d)
    assert witness is not None
    assert descriptor_element(witness) == d
    assert oracle_eval(mutex, witness, f, OracleConfig(6))


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


def test_provide_counterex_agrees_with_oracle():
    # the cross-check exploits the one-sided nature of the bounded oracle:
    # on the purely existential dual a True is definitive at any depth (a
    # found witness is a real witness), and on the universal original a
    # False is definitive, so a None verdict paired with an oracle False
    # would prove the engine incomplete.  only an oracle True on a None
    # verdict is inconclusive, and there deeper witnesses cannot hide from
    # the engine itself, whose element search is exhaustive.
    rng = random.Random(64)
    tested = 0
    while tested < 40:
        structure = random_structure(rng, max_states=3)
        formula = random_forall_formula(rng, list(structure.propositions))
        g = normalize(formula)
        found = provide_counterex(structure, g)
        if found is None:
            config = OracleConfig(depth_bound=2 + structure.n_states**2)
            assert oracle_mod_check(structure, g, config)
        else:
            element, track = found
            assert track.fst == structure.initial
            assert descriptor_element(track) == element
            dual = to_exists_dual(g)
            assert any(
                oracle_eval(structure, track, dual, OracleConfig(depth))
                for depth in (4, 8, 16, 32)
            )
        tested += 1


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
            assert session.holds(f, d) == want, (to_text(f), d)
            assert val(f, d, structure) == want


def test_kernel_raises_on_modalities_after_a_deciding_letter(k2):
    d = _element(k2, "v0", (), "v1")
    for text in ("T | <A>p", "F & [A]q", "!(T | <B>p)"):
        with pytest.raises(FragmentError):
            val(parse_formula(text), d, k2)


def test_element_check_sends_a_propositional_and_to_the_kernel_whole(mutex):
    session = _Checker(mutex)
    sent = []
    holds = session.kernels.holds
    session.kernels.holds = lambda f, d: sent.append(f) or holds(f, d)
    f = normalize(parse_formula("r0 & (r1 | !e0) & !(x0 & e1)"))
    d = _element(mutex, "w1", ("w3",), "w4")
    track = _Table(mutex, d.v_in, True).realize(d)
    assert session._element_check(f, d) == oracle_eval(mutex, track, f)
    assert sent == [f]
