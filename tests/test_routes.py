"""One referee for every row of ``hsmc check``'s route table.

Each batch draws seeded structures and formulas from ``tests/corpus.py``.
For each formula, every engine whose fragment test accepts it must agree,
and with the oracle; every counterexample starts at the initial state and
the oracle refutes it; the automaton, ``conp`` and the depth-0 walk report
no longer track than a shortest refuted one; ``auto`` picks an accepting
row; and every row whose test rejects the formula refuses it with a
``FragmentError`` in its own name.
"""

import io
import random
from collections import Counter
from dataclasses import dataclass

import pytest

import hsmc.formula as fm
from hsmc import (
    FragmentError,
    OracleConfig,
    Track,
    automaton,
    descriptor_element,
    nest_b,
    normalize,
    oracle_eval,
    oracle_mod_check,
    parse_formula,
    provide_counterex,
)
from hsmc.cli import DEFAULT_MAX_TAU, _ROUTES, _pick, run
from hsmc.kripke import KripkeStructure, serialize_kripke
from hsmc.oracle import all_tracks

from conftest import K2_TEXT
from corpus import (
    pair_free_stats,
    random_checker_formula,
    random_forall_formula,
    random_structure,
)


@dataclass
class Instance:
    structure: KripkeStructure
    g: fm.Formula
    # exact: the oracle at ``oracle`` decides the formula.  Otherwise (<E>
    # or a long pair-free track) only its False is definitive: a holding
    # verdict is checked at ``oracle`` when given, and counterexamples at
    # growing depths
    oracle: OracleConfig | None
    exact: bool


def _exact(structure, g):
    """The instance with an exact oracle depth, or None when the
    representatives are too many or too long for one."""
    stats = pair_free_stats(structure, nest_b(g), cap_count=20_000)
    if stats is None or stats[0] > 9:
        return None
    return Instance(structure, g, OracleConfig(depth_bound=stats[0] + 1), True)


def _universal_71():
    # universal formulas over A, Ai and B go to conp, but the automaton and
    # the representative walk decide them too.  The walk's stream grows
    # with tau, so instances with over 20,000 representatives are skipped
    rng = random.Random(71)
    out = []
    while len(out) < 300:
        k = random_structure(rng, max_states=4, max_props=3)
        g = normalize(random_forall_formula(rng, [*k.propositions, "zz"]))
        if k.n_states < 2 or fm.Modality.E in fm.modalities(g):
            continue
        if pair_free_stats(k, nest_b(g), cap_count=20_000) is None:
            continue
        out.append(Instance(k, g, None, False))
    return out


def _universal_64():
    # universal formulas with <E>: the bounded oracle's False is definitive
    # on the formula, so a holding verdict paired with an oracle False
    # would prove conp incomplete
    rng = random.Random(64)
    out = []
    for _ in range(100):
        k = random_structure(rng, max_states=3)
        g = normalize(random_forall_formula(rng, list(k.propositions)))
        out.append(Instance(k, g, OracleConfig(depth_bound=2 + k.n_states**2), False))
    return out


def _started_by(seed, max_states, max_nest):
    # started-by depth >= 1 inside the automaton's fragment
    rng = random.Random(seed)
    out = []
    while len(out) < 60:
        k = random_structure(rng, max_states=max_states)
        g = normalize(random_checker_formula(rng, list(k.propositions), max_nest=max_nest))
        if nest_b(g) < 1 or not automaton.in_fragment(g):
            continue
        instance = _exact(k, g)
        if instance is not None:
            out.append(instance)
    return out


def _depth0_83():
    # a letter of the initial state is or-ed onto the random formula, so
    # that short tracks tend to satisfy it and counterexamples get longer
    rng = random.Random(83)
    out = []
    while len(out) < 200:
        k = random_structure(rng, max_states=5, max_props=3)
        mine = sorted(k.label_set(k.initial))
        if k.n_states < 2 or not mine:
            continue
        g = random_checker_formula(rng, [*k.propositions, "zz"], max_nest=0)
        g = normalize(fm.Or(fm.Prop(rng.choice(mine)), g))
        instance = _exact(k, g)
        if instance is not None:
            out.append(instance)
    return out


def _checker(seed, max_nest):
    # the max_nest=0 batch keeps <Bi>/<Ei> on the element path; the other
    # one puts <Ei> over <B> outside the automaton
    rng = random.Random(seed)
    out = []
    while len(out) < 40:
        k = random_structure(rng)
        g = normalize(random_checker_formula(rng, list(k.propositions), max_nest=max_nest))
        instance = _exact(k, g)
        if instance is not None:
            out.append(instance)
    return out


def _refuted(instance, track, depths=(4, 8, 16, 32)):
    k, g = instance.structure, instance.g
    if instance.exact:
        return not oracle_eval(k, track, g, instance.oracle)
    return any(not oracle_eval(k, track, g, OracleConfig(d)) for d in depths)


def _referee(instance, tally):
    k, g = instance.structure, instance.g
    depth0 = fm.Modality.E not in fm.modalities(g) and nest_b(g) == 0
    verdicts = {}
    for name, route in _ROUTES.items():
        if name == "oracle":
            continue
        # conp also decides the universal formulas over <A>/<Ai> alone,
        # which its row leaves to the automaton
        if route.accepts(g) or name == "conp" and fm.matches_forall_grammar(g):
            verdicts[name] = route.decide(k, g, None, DEFAULT_MAX_TAU)
            continue
        with pytest.raises(FragmentError, match=f"the {name} engine"):
            route.decide(k, g, None, DEFAULT_MAX_TAU)
        if route.decide_track is not None:
            track = Track((k.initial, k.successors(k.initial)[0]))
            with pytest.raises(FragmentError, match=f"the {name} engine"):
                route.decide_track(k, g, track, None)
        tally[f"refused by {name}"] += 1
    for on_track in (False, True):
        picked = _pick(g, on_track)
        assert _ROUTES[picked].accepts(g), (fm.to_text(g), on_track)
        assert picked in verdicts or on_track and picked == "oracle", fm.to_text(g)
    tally["with <E>"] += fm.Modality.E in fm.modalities(g)

    holds = {verdict[0] for verdict in verdicts.values()}
    assert len(holds) == 1, (fm.to_text(g), verdicts)
    holds = holds.pop()
    if instance.exact or holds and instance.oracle is not None:
        verdicts["oracle"] = _ROUTES["oracle"].decide(k, g, instance.oracle, None)
        assert verdicts["oracle"][0] == holds, fm.to_text(g)
    if depth0 and {"automaton", "representative"} <= verdicts.keys():
        assert verdicts["automaton"] == verdicts["representative"], fm.to_text(g)
    if holds:
        return
    tally["violated"] += 1
    for name, (_, track) in verdicts.items():
        assert track.fst == k.initial, (name, fm.to_text(g))
        assert _refuted(instance, track), (name, fm.to_text(g), track)
    if "conp" in verdicts:
        element, track = provide_counterex(k, g)
        assert (element, track) == (descriptor_element(track), verdicts["conp"][1])
    shortest = {"automaton", "conp"} | ({"representative"} if depth0 else set())
    lengths = {len(verdicts[name][1]) for name in shortest & verdicts.keys()}
    assert len(lengths) == 1, (fm.to_text(g), verdicts)
    length = lengths.pop()
    shorter = all_tracks(k, k.initial, length - 1)
    assert not any(_refuted(instance, t, (8,)) for t in shorter), fm.to_text(g)
    tally["longer than two states"] += length > 2


@pytest.mark.parametrize(
    "make, floors",
    [
        (_universal_71, {"violated": (50, 250)}),
        (_universal_64, {"with <E>": (15, None)}),
        (lambda: _started_by(61, 3, 2), {"violated": (20, None)}),
        (lambda: _started_by(62, 4, 3), {"violated": (20, None)}),
        (_depth0_83, {"longer than two states": (5, None)}),
        (lambda: _checker(51, 2), {}),
        (lambda: _checker(53, 0), {}),
    ],
    ids=["universal-71", "universal-64", "started-by-61", "started-by-62", "depth0-83",
         "checker-51", "checker-53"],
)
def test_every_route_agrees_with_the_engines_and_the_oracle(make, floors):
    tally = Counter()
    for instance in make():
        _referee(instance, tally)
    # each batch's floors keep both verdicts, or <E>, or long
    # counterexamples exercised
    for key, (low, high) in floors.items():
        assert tally[key] >= low, tally
        assert high is None or tally[key] <= high, tally


def _run(argv):
    out = io.StringIO()
    return run(argv, out=out), out.getvalue()


@pytest.mark.parametrize(
    "text, extra, message",
    [
        ("<E>p", ["--engine", "automaton"], "the automaton engine cannot handle <E> formulas"),
        ("[E]p", ["--engine", "automaton"], "the automaton engine cannot handle <E> formulas"),
        (
            "<E>p",
            ["--engine", "automaton", "--track", "v0 v1"],
            "the automaton engine cannot handle <E> formulas",
        ),
        (
            "[A]<Ei>[B]q",
            ["--engine", "automaton"],
            "the automaton engine cannot handle <Ei>/[Ei] over <B>/[B]; "
            "use the representative engine",
        ),
        (
            "[E](p | q)",
            ["--engine", "representative", "--track", "v0 v1"],
            "the representative engine cannot handle <E> formulas",
        ),
        (
            "<E>p",
            ["--engine", "representative"],
            "the representative engine cannot handle <E> formulas",
        ),
        (
            "<A>p",
            ["--engine", "conp"],
            "the conp engine expects a universal-fragment formula, got AAbar",
        ),
    ],
)
def test_each_engine_refuses_in_its_own_name(tmp_path, capsys, text, extra, message):
    model, formula = tmp_path / "k2.model", tmp_path / "f.formula"
    model.write_text(K2_TEXT)
    formula.write_text(text + "\n")
    argv = ["check", "--model", str(model), "--formula", str(formula), *extra]
    assert _run(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def _one_letter_each(m):
    """The complete graph on v0..vm, where vi alone carries qi, and the
    universal formula [Ai]([B][A]!q1 & ... & [B][A]!qm): the automaton's
    product grows exponentially in the number of [B] pairs, and conp's
    class search does not."""
    names = [f"v{i}" for i in range(m + 1)]
    letters = [f"q{i}" for i in range(1, m + 1)]
    structure = KripkeStructure(
        names,
        [(u, v) for u in names for v in names],
        "v0",
        {f"v{i}": [f"q{i}"] for i in range(1, m + 1)},
        letters,
    )
    text = "[Ai](" + " & ".join(f"[B][A]!{q}" for q in letters) + ")"
    return structure, text


def test_universal_formulas_go_to_conp_ahead_of_the_automaton(tmp_path, monkeypatch):
    structure, text = _one_letter_each(4)
    g = normalize(parse_formula(text))
    holds = provide_counterex(structure, g) is None
    assert automaton.mod_check(structure, g).holds == holds
    assert oracle_mod_check(structure, g, OracleConfig(4)) == holds

    def refuse(*args, **kwargs):
        raise AssertionError("routed to the automaton")

    monkeypatch.setattr("hsmc.automaton.mod_check", refuse)
    structure, text = _one_letter_each(12)
    model, formula = tmp_path / "m.model", tmp_path / "f.formula"
    model.write_text(serialize_kripke(structure))
    formula.write_text(text + "\n")
    argv = ["check", "--model", str(model), "--formula", str(formula)]
    assert _run(argv) == (1, "result: violated\nCE: v0 v0\n")
