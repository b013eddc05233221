import random

import pytest

from hsmc import (
    MissingEdgeError,
    ModelError,
    Track,
    concat,
    parse_kripke,
    serialize_kripke,
    track_label,
)
from corpus import random_structure, random_walk


def test_parse_k2(k2):
    assert k2.states == ("v0", "v1")
    assert k2.propositions == ("p", "q")
    assert k2.initial_name == "v0"
    assert k2.label_set(0) == {"p"}
    assert k2.label_set(1) == {"q"}
    assert sorted(k2.edges()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_parse_single_self_loop():
    k = parse_kripke("states: v\ninit: v\nlabel v: p\nedges: v->v\n")
    assert k.n_states == 1
    assert k.label_set(0) == {"p"}


def test_parse_rejects_non_left_total():
    text = "states: v0 v1\ninit: v0\nedges: v0->v1\n"
    with pytest.raises(ModelError, match="left-total"):
        parse_kripke(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="line 3"):
        parse_kripke("states: a\ninit: a\nbogus: x\nedges: a->a\n")


def test_parse_rejects_unknowns():
    with pytest.raises(ModelError, match="unknown initial state"):
        parse_kripke("states: a\ninit: b\nedges: a->a\n")
    with pytest.raises(ModelError, match="unknown state"):
        parse_kripke("states: a\ninit: a\nedges: a->b a->a\n")
    with pytest.raises(ModelError, match="unknown proposition"):
        parse_kripke("props: p\nstates: a\ninit: a\nlabel a: q\nedges: a->a\n")
    with pytest.raises(ModelError, match="missing init"):
        parse_kripke("states: a\nedges: a->a\n")


def test_track_ops_on_k2(k2):
    t = k2.track("v0 v1 v0")
    assert t.fst == 0 and t.lst == 0
    assert [k2.track_str(p) for p in t.prefixes()] == ["v0 v1"]
    assert [k2.track_str(s) for s in t.suffixes()] == ["v1 v0"]
    assert t.states[1:-1] == (1,)

    short = k2.track("v0 v1")
    assert list(short.prefixes()) == []
    assert list(short.suffixes()) == []


def test_track_ops_on_longer_walk(fig4):
    t = fig4.track("v0 v0 v0 v1 v2")
    assert fig4.state_name(t.fst) == "v0"
    assert fig4.state_name(t.lst) == "v2"
    assert [fig4.state_name(s) for s in t.states[1:-1]] == ["v0", "v0", "v1"]


def test_track_validation(k2):
    with pytest.raises(ValueError):
        Track((0,))
    with pytest.raises(MissingEdgeError):
        parse_kripke("states: a b\ninit: a\nedges: a->b b->b\n").track("a b a")


def test_concat(k2):
    ab = k2.track("v0 v1")
    assert concat(k2, ab, ab).states == (0, 1, 0, 1)
    aa = k2.track("v0 v0")
    assert concat(k2, aa, ab).states == (0, 0, 0, 1)


def test_concat_missing_edge():
    chain = parse_kripke("states: a b\ninit: a\nedges: a->b b->b\n")
    ab = chain.track("a b")
    with pytest.raises(MissingEdgeError):
        concat(chain, ab, ab)


def test_track_label(k2):
    assert track_label(k2, k2.track("v0 v1")) == frozenset()
    assert track_label(k2, k2.track("v0 v0")) == {"p"}


def test_track_label_full_alphabet():
    k = parse_kripke(
        "states: a b\ninit: a\nlabel a: p q\nlabel b: p q\nedges: a->b b->a\n"
    )
    assert track_label(k, k.track("a b a b")) == {"p", "q"}


def test_prefix_count_invariant(k2):
    rng = random.Random(7)
    for _ in range(25):
        t = random_walk(rng, k2, rng.randint(3, 9))
        assert len(list(t.prefixes())) == len(t) - 2
        extended = Track(t.states + (rng.choice(k2.successors(t.lst)),))
        assert t.states in {p.states for p in extended.prefixes()}


def test_label_intersects_over_concat():
    rng = random.Random(11)
    for _ in range(40):
        k = random_structure(rng)
        left = random_walk(rng, k, rng.randint(2, 5))
        succ = k.successors(left.lst)
        right_first = rng.choice(succ)
        right = Track((right_first,) + random_walk(rng, k, 2).states[:1])
        # rebuild right as a legal walk from right_first
        states = [right_first]
        for _ in range(rng.randint(1, 4)):
            states.append(rng.choice(k.successors(states[-1])))
        right = Track(tuple(states))
        whole = concat(k, left, right)
        assert track_label(k, whole) == track_label(k, left) & track_label(k, right)


def test_serialize_round_trip(k2):
    assert parse_kripke(serialize_kripke(k2)) == k2
    rng = random.Random(13)
    for _ in range(30):
        k = random_structure(rng, max_states=5, max_props=3)
        assert parse_kripke(serialize_kripke(k)) == k


def test_declaration_order_is_preserved():
    text = "states: z9 a1 m5\ninit: m5\nedges: z9->a1 a1->m5 m5->z9\n"
    k = parse_kripke(text)
    assert k.states == ("z9", "a1", "m5")
    assert k.state_name(1) == "a1" and k.state_index("a1") == 1
