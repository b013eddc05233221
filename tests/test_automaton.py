import random

import pytest

import hsmc.formula as fm
from hsmc import (
    FragmentError,
    MissingEdgeError,
    ModelError,
    Track,
    automaton,
    check,
    mod_check,
    nest_b,
    normalize,
    oracle_eval,
    parse_formula,
    parse_kripke,
    witnessed_elements,
)

from hsmc import conp
from hsmc.conp import Elements, _letters, element_state

from corpus import random_checker_formula, random_structure, random_walk


def test_track_check_agrees_with_representative_engine():
    rng = random.Random(63)
    for _ in range(150):
        structure = random_structure(rng, max_states=3)
        g = normalize(
            random_checker_formula(rng, list(structure.propositions), max_nest=2)
        )
        if not automaton.in_fragment(g):
            continue
        for _ in range(4):
            t = random_walk(rng, structure, rng.randint(2, 7))
            assert automaton.check(structure, g, t) == check(
                structure, nest_b(g), g, t
            ), (g, t)


def test_inverse_clauses_over_started_by_agree_with_representative_engine():
    # <Ai>/<Bi> and their boxes over a started-by child, where the random
    # formulas above rarely put them
    rng = random.Random(65)
    tested = 0
    while tested < 40:
        structure = random_structure(rng, max_states=3)
        child = normalize(
            random_checker_formula(rng, list(structure.propositions), max_nest=1)
        )
        if nest_b(child) < 1 or not automaton.in_fragment(child):
            continue
        tested += 1
        for mod in (fm.Modality.ABAR, fm.Modality.BBAR):
            for node in (fm.Diamond, fm.Box):
                g = node(mod, child)
                for _ in range(3):
                    t = random_walk(rng, structure, rng.randint(2, 5))
                    assert automaton.check(structure, g, t) == check(
                        structure, nest_b(g), g, t
                    ), (g, t)


@pytest.mark.parametrize(
    "track,formula,want",
    [
        # no proper prefix, but every right extension has one
        ("v0 v1", "[Bi]<B>T", True),
        ("v0 v1", "<Bi>[B]F", False),
        ("v0 v0 v1", "<B>[B]F", True),
        # <Ai> looks at the tracks ending at v0, such as v1 v1 v0; every
        # prefix of a track starting at v0 fails q
        ("v0 v1", "<Ai>(<B>T & [B]q)", True),
        ("v1 v0", "<A>(<B>T & [B]q)", False),
    ],
)
def test_k2_track_verdicts(k2, track, formula, want):
    assert automaton.check(k2, parse_formula(formula), k2.track(track)) == want


@pytest.mark.parametrize(
    "text",
    [
        "[A]T & <A>T",
        "[Ai]T & <Ai>T",
        "[A](<B>T | [B]F) & <A>(<B>T | [B]F)",
        "[Ai](<B>T | [B]F) & <Ai>(<B>T | [B]F)",
    ],
)
def test_meets_results_are_cached_per_diamond_and_box(k2, text):
    # the box asks for a track where the child fails, the diamond for one
    # where it holds: one endpoint, two answers
    f = parse_formula(text)
    assert automaton.mod_check(k2, f).holds
    assert mod_check(k2, f).holds


def test_memo_entries_are_masked_to_scope(fig4, k2):
    # a subformula is read on its state masked to its own scope and letters,
    # so states that differ only in bits or letters it does not read share
    # one memo entry; started-by subformulas are masked on both
    for structure, text in (
        (fig4, "[B](<A>T -> [A]<B>T) | <Bi>[B]<B>T"),
        (k2, "[B]([B]p | <Ai>[B]q) & <Bi>(<B>q & [B][B]p)"),
    ):
        g = normalize(parse_formula(text))
        session = Elements(structure)
        for state in session.reachable(session.scope(g)):
            session.check(g, state)
        assert session.memo
        started_by = 0
        for f, state in session.memo:
            assert state[3] & ~session.scope(f) == 0, (f, state)
            assert state[2] & ~_letters(f, structure) == 0, (f, state)
            started_by += fm.Modality.B in fm.modalities(f)
        assert started_by


def test_states_without_bits_are_the_witnessed_classes(mutex):
    # with no pair in scope a product state is a class (v_in, v_fin,
    # joint): the session's states are exactly the classes of the
    # witnessed elements over all anchors, with no internal mask to split
    # them
    session = Elements(mutex)
    classes = {
        element_state(mutex, d)
        for anchor in range(mutex.n_states)
        for d in witnessed_elements(mutex, anchor, True)
    }
    assert set(session.reachable(0)) == classes
    # the witness tables reach each of those classes exactly once
    walked = [s for anchor in range(mutex.n_states) for s in session.table(anchor, True).parent]
    assert len(walked) == len(set(walked))
    assert set(walked) == classes


SIX_TEXT = """\
props: p q r
states: s0 s1 s2 s3 s4 s5
init: s0
label s0: p q r
label s1: r
label s2: p q
label s3: p r
label s4: p q
label s5: p
edges: s0->s0 s0->s2 s0->s4 s0->s5 s1->s1 s1->s5 s2->s3 s2->s4 s2->s5 s3->s1 s3->s4 s4->s1 s4->s5 s5->s3 s5->s4
"""


def test_depth0_counterexample_is_a_shortest_violating_initial_track():
    # both track engines realize the first violating class of the
    # breadth-first class walk; the first violating element in (internal,
    # v_in, v_fin) order would give the longer s0 s2 s3 s1
    structure = parse_kripke(SIX_TEXT)
    f = parse_formula("<Bi>p")
    for engine in (automaton.mod_check, mod_check):
        verdict = engine(structure, f)
        assert structure.track_str(verdict.counterexample) == "s0 s4 s1"


@pytest.mark.parametrize("text", ["[A]q", "<Bi>p", "[A](<Bi>q | p)"])
def test_depth0_tables_are_built_through_the_module_global(monkeypatch, k2, text):
    # the benchmark's tracer counts witness tables by patching conp._Table
    # by name; the depth-0 element path must build its class walks through
    # it, the initial state's forward one included, whatever letters it
    # is projected onto
    built = []
    table = conp._Table

    def counting(session, anchor, forward, letters=-1):
        built.append((anchor, forward))
        return table(session, anchor, forward, letters)

    monkeypatch.setattr(conp, "_Table", counting)
    assert not automaton.mod_check(k2, parse_formula(text)).holds
    assert (k2.initial, True) in built


def test_fragment(k2):
    out = normalize(parse_formula("<Ei><B>p"))
    assert not automaton.in_fragment(out)
    with pytest.raises(FragmentError):
        automaton.mod_check(k2, out)
    with pytest.raises(FragmentError):
        automaton.mod_check(k2, parse_formula("<E>p"))
    # <Ei> over a started-by-free child is element-level, and so is one
    # whose started-by lies below <A>/<Ai>, read on other tracks
    assert automaton.in_fragment(normalize(parse_formula("<B><Ei>p")))
    assert automaton.in_fragment(normalize(parse_formula("[Ei](<Ai>[B]p | q)")))
    assert not automaton.in_fragment(normalize(parse_formula("<A><Ei><Bi><B>p")))


def test_counterexamples_match_the_representative_engine(k2, fig4, sched):
    for structure, text, ce in (
        (fig4, "[B](<A>T -> [A]<B>T)", "v0 v0 v0"),
        (sched, "[B]<Ai>T", "v0 v1 u1"),
        (k2, "[B][B][B]F", "v0 v0 v0 v0 v0"),
        (k2, "<B>(<A>p & <B>(<A>p & <B><A>p))", "v0 v0"),
    ):
        f = parse_formula(text)
        verdict = automaton.mod_check(structure, f)
        assert structure.track_str(verdict.counterexample) == ce
        assert verdict.counterexample == mod_check(structure, f).counterexample


@pytest.mark.parametrize(
    "decide",
    [
        lambda k, f, t: automaton.check(k, f, t),
        lambda k, f, t: check(k, 1, f, t),
        lambda k, f, t: oracle_eval(k, t, f),
    ],
    ids=["automaton", "representative", "oracle"],
)
def test_per_track_entry_points_validate_the_track(k2, decide):
    f = parse_formula("[B]<A>p")
    with pytest.raises(ModelError):
        decide(k2, f, Track((0, 7)))
    chain = parse_kripke("states: a b c\ninit: a\nlabel a: p\nedges: a->b b->c c->c\n")
    with pytest.raises(MissingEdgeError):
        decide(chain, f, Track((0, 2)))
