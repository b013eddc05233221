import random

import pytest

import hsmc.formula as fm
from hsmc import (
    FragmentError,
    OracleConfig,
    Track,
    build_bk_descriptor,
    check,
    descriptor_element,
    mod_check,
    nest_b,
    normalize,
    oracle_eval,
    parse_formula,
)
from hsmc.conp import Elements
from hsmc.conp import pack
from hsmc.errors import ResourceLimitError
from hsmc.oracle import _chains_from, _chains_into

from corpus import (
    pair_free_stats,
    random_checker_formula,
    random_structure,
    random_walk,
)


def _track_check(structure, track_text, formula_text):
    f = normalize(parse_formula(formula_text))
    return check(structure, nest_b(f), f, structure.track(track_text))


NESTED = "<B>(<A>p & <B>(<A>p & <B><A>p))"


@pytest.mark.parametrize(
    "track,formula,want",
    [
        ("v0 v1 v0 v1", "<A>q", True),
        ("v0 v1 v0", "<A>q", False),
        ("v0 v1 v0 v1", "<Ai>p", True),
        ("v1 v0 v1", "<Ai>p", False),
        ("v1 v0 v1 v0 v1 v0 v1", NESTED, True),
        ("v1 v0 v1 v0 v1", NESTED, False),
        ("v0 v0 v0 v1 v0", "<B>(<A>q & <B><A>p)", True),
        ("v0 v1 v0 v0 v0", "<B>(<A>q & <B><A>p)", False),
    ],
)
def test_k2_track_verdicts(k2, track, formula, want):
    assert _track_check(k2, track, formula) == want


def test_mod_check_trivia(k2):
    assert mod_check(k2, parse_formula("T")).holds
    verdict = mod_check(k2, parse_formula("F"))
    assert not verdict.holds
    assert verdict.counterexample is not None
    assert verdict.counterexample.fst == k2.initial


def test_rejects_finishes_modality(k2):
    with pytest.raises(FragmentError):
        mod_check(k2, parse_formula("<E>p"))
    with pytest.raises(FragmentError):
        check(k2, 0, normalize(parse_formula("[E]p")), k2.track("v0 v1"))


def test_max_tau_guard(k2):
    with pytest.raises(ResourceLimitError):
        mod_check(k2, parse_formula("<B>T"), max_tau=10)
    # depth 0 walks no stream, so the ceiling (tau(2, 0) = 84) does not apply
    verdict = mod_check(k2, parse_formula("[A](p | q)"), max_tau=10)
    assert not verdict.holds


def test_counterexample_is_refutable_by_oracle(k2):
    verdict = mod_check(k2, parse_formula("[A]q"))
    assert not verdict.holds
    assert not oracle_eval(k2, verdict.counterexample, parse_formula("[A]q"), OracleConfig(8))


def test_inverse_clauses_relate_exactly_the_extension_elements():
    # <Bi>/<Ei> on a class range over the classes of every right/left
    # extension, brute-forced up to the longest pair-free track; each class
    # carries the extension's own joint label mask
    def class_of(track):
        e = pack(structure, descriptor_element(track))
        return (e[0], e[2], e[3], 0)

    rng = random.Random(54)
    for _ in range(100):
        structure = random_structure(rng, max_states=3)
        limit = pair_free_stats(structure, 0)[0]
        elements = Elements(structure)
        for _ in range(3):
            t = random_walk(rng, structure, rng.randint(2, 5))
            c = class_of(t)
            right = {
                class_of(Track(t.states + u))
                for u in _chains_from(structure, t.lst, limit)
            }
            left = {
                class_of(Track(u + t.states))
                for u in _chains_into(structure, t.fst, limit)
            }
            assert set(elements.related(fm.Modality.BBAR, c)) == right, t
            assert set(elements.related(fm.Modality.EBAR, c)) == left, t


def test_depth_zero_mod_check_walks_no_stream(mutex, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("depth-0 mod_check walked the representative stream")

    monkeypatch.setattr("hsmc.checker.unravel", refuse)
    for text in ("[A](r0 -> <A>e0 | <A><A>e0)", "x0 -> <Bi>x0"):
        assert mod_check(mutex, parse_formula(text)).holds, text


def test_equal_descriptors_give_equal_verdicts():
    # tracks sharing a depth-k descriptor satisfy the same depth-k formulas
    rng = random.Random(52)
    checked = 0
    while checked < 60:
        structure = random_structure(rng, max_states=3)
        formula = normalize(random_checker_formula(rng, list(structure.propositions)))
        depth = nest_b(formula)
        tracks = [random_walk(rng, structure, rng.randint(2, 8)) for _ in range(10)]
        by_key = {}
        for t in tracks:
            by_key.setdefault(build_bk_descriptor(structure, t, depth).key, []).append(t)
        for group in by_key.values():
            if len(group) < 2:
                continue
            verdicts = {check(structure, depth, formula, t) for t in group}
            assert len(verdicts) == 1
            checked += 1


def test_budget_assertion(k2):
    f = normalize(parse_formula("<B><B>p"))
    with pytest.raises(ValueError):
        check(k2, 1, f, k2.track("v0 v1 v0"))
