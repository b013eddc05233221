import gc
import itertools
import random
import types
import weakref

import pytest

import hsmc.formula as fm
from hsmc import (
    KripkeStructure,
    OracleConfig,
    Track,
    oracle_eval,
    oracle_mod_check,
    parse_formula,
)
from hsmc.oracle import (
    _chains_from,
    _chains_into,
    _Oracle,
    _tracks_into,
    all_tracks,
    oracle_find_counterexample,
)

from corpus import LiteralOracle, random_checker_formula, random_structure, random_walk


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


def test_oracle_matches_the_literal_clauses():
    # verdict, first violating track and per-track value over all six
    # modalities, against the clauses read literally on state tuples
    rng = random.Random(35)
    mods = sorted(fm.BASIC_MODALITIES, key=lambda m: m.value)
    seen, checked = set(), 0
    while checked < 2000:
        k = random_structure(rng, max_states=3)
        f = random_checker_formula(rng, [*k.propositions, "zz"], 5, 3, mods)
        if fm.is_propositional(fm.normalize(f)):
            continue
        checked += 1
        depth = rng.randint(2, 5)
        config, literal = OracleConfig(depth), LiteralOracle(k, depth)
        violation = literal.first_violation(f)
        assert oracle_find_counterexample(k, f, config) == violation, fm.to_text(f)
        assert oracle_mod_check(k, f, config) == (violation is None)
        track = random_walk(rng, k, rng.randint(2, 6))
        want = literal.eval(track.states, fm.normalize(f))
        assert oracle_eval(k, track, f, config) == want, (fm.to_text(f), track)
        seen |= fm.modalities(fm.normalize(f))
    assert seen == fm.BASIC_MODALITIES


def test_long_tracks_need_no_recursion_per_state():
    # started-by and finishes walk a 2,000-state track's prefixes and
    # suffixes in a loop, not one call deep per state
    k = KripkeStructure(["s0"], [("s0", "s0")], "s0", {"s0": ["p"]})
    track = Track((0,) * 2000)
    for text, want in (("[E]p", True), ("[B]p", True), ("<Bi>[E]p", True), ("<E>!p", False)):
        assert oracle_eval(k, track, parse_formula(text), OracleConfig(4)) == want


def test_an_oracle_is_freed_by_reference_counting(k2):
    oracle = _Oracle(k2, OracleConfig(6))
    f = fm.normalize(parse_formula("<A>[B]p & [Ai]<E>q | <Bi>[Ei]!p"))
    oracle.eval(k2.track("v0 v1 v0").states, f)
    refs = [weakref.ref(oracle)] + [
        weakref.ref(ev)
        for ev in oracle.compiled.values()
        if isinstance(ev, types.FunctionType)
    ]
    assert len(refs) > 5
    gc.disable()
    try:
        del oracle
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


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
