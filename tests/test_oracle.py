import itertools
import random

import pytest

from hsmc import OracleConfig, oracle_eval, oracle_mod_check, parse_formula
from hsmc.oracle import (
    _chains_from,
    _chains_into,
    _tracks_into,
    all_tracks,
    oracle_find_counterexample,
)

from corpus import random_structure, random_walk


def test_k2_met_by_verdicts(k2):
    config = OracleConfig(8)
    assert oracle_eval(k2, k2.track("v0 v1 v0 v1"), parse_formula("<Ai>p"), config)
    assert not oracle_eval(k2, k2.track("v1 v0 v1"), parse_formula("<Ai>p"), config)


def test_top_everywhere(k2):
    for track in all_tracks(k2, 0, 4):
        assert oracle_eval(k2, track, parse_formula("T"), OracleConfig(4))


def _brute_force_walks(k, anchor, max_states, backward, with_anchor):
    """Every walk of 1..max_states states (counting the anchor when it is
    kept) leaving ``anchor`` along successors, or along predecessors when
    backward, in depth-first declaration order: sorted by the position of
    each step in the neighbour list it was taken from."""
    neighbours = k.predecessors if backward else k.successors
    found = []
    for n in range(1, max_states - with_anchor + 1):
        for chain in itertools.product(range(k.n_states), repeat=n):
            walk = (anchor, *chain)
            steps = list(zip(walk, walk[1:]))
            if not all(k.has_edge(b, a) if backward else k.has_edge(a, b) for a, b in steps):
                continue
            key = [neighbours(a).index(b) for a, b in steps]
            seq = walk if with_anchor else chain
            found.append((key, tuple(reversed(seq)) if backward else seq))
    return [seq for _, seq in sorted(found)]


def test_walkers_match_brute_force():
    # the first violating track the oracle reports depends on this order
    rng = random.Random(33)
    for _ in range(40):
        k = random_structure(rng, max_states=3, edge_prob=0.5)
        for anchor in range(k.n_states):
            for bound in range(2, 6):
                assert [t.states for t in all_tracks(k, anchor, bound)] == (
                    _brute_force_walks(k, anchor, bound, False, True)
                )
                assert [t.states for t in _tracks_into(k, anchor, bound)] == (
                    _brute_force_walks(k, anchor, bound, True, True)
                )
                assert list(_chains_from(k, anchor, bound)) == (
                    _brute_force_walks(k, anchor, bound, False, False)
                )
                assert list(_chains_into(k, anchor, bound)) == (
                    _brute_force_walks(k, anchor, bound, True, False)
                )


def test_scheduler_structure_verdicts(sched):
    chi = lambda p, q: f"(<E><Ai>{p} & <E><Ai>{q})"
    config = OracleConfig(14)
    pairs_seen = (
        f"[E](<E>^4 T -> ({chi('p1', 'p2')} | {chi('p1', 'p3')} | {chi('p2', 'p3')}))"
    )
    assert oracle_mod_check(sched, parse_formula(pairs_seen), config)
    assert not oracle_mod_check(
        sched, parse_formula("[E](<E>^10 T -> <E><Ai>p3)"), config
    )
    assert not oracle_mod_check(
        sched,
        parse_formula("[E](<E>^6 T -> (<E><Ai>p1 & <E><Ai>p2 & <E><Ai>p3))"),
        config,
    )


def test_find_counterexample(sched):
    config = OracleConfig(14)
    violating = oracle_find_counterexample(
        sched, parse_formula("[E](<E>^10 T -> <E><Ai>p3)"), config
    )
    assert violating is not None
    assert violating.fst == sched.initial
    assert not oracle_eval(
        sched, violating, parse_formula("[E](<E>^10 T -> <E><Ai>p3)"), config
    )


def test_homogeneity_on_subtracks():
    # a letter holds on a track iff it holds on every subtrack
    rng = random.Random(31)
    for _ in range(30):
        k = random_structure(rng)
        track = random_walk(rng, k, rng.randint(3, 7))
        config = OracleConfig(4)
        for p in k.propositions:
            f = parse_formula(p)
            whole = oracle_eval(k, track, f, config)
            subs = [
                track.subtrack(i, j)
                for i in range(len(track))
                for j in range(i + 1, len(track))
            ]
            assert whole == all(oracle_eval(k, s, f, config) for s in subs)


def test_depth_bound_validation():
    with pytest.raises(ValueError):
        OracleConfig(1)


def test_bound_warning(k2):
    import warnings

    from hsmc.errors import BoundWarning

    for text in ("<A>p", "<B>p"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            oracle_eval(k2, k2.track("v0 v1"), parse_formula(text), OracleConfig(5))
        assert any(issubclass(w.category, BoundWarning) for w in caught)
