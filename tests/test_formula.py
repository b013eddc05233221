import gc
import io
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsmc.formula as fm
from hsmc import (
    FormulaError,
    FragmentClass,
    FragmentError,
    OracleConfig,
    ResourceLimitError,
    classify,
    desugar,
    expand,
    make_ell,
    nest_b,
    normalize,
    oracle_eval,
    parse_formula,
    to_exists_dual,
    to_text,
)
from hsmc.formula import (
    TOP,
    BOTTOM,
    And,
    BigAnd,
    Box,
    Diamond,
    Iff,
    Implies,
    Modality,
    ModPower,
    Not,
    Or,
    Prop,
)
from hsmc.cli import run
from hsmc.oracle import all_tracks

from conftest import K2_TEXT


def test_parse_nested_modalities():
    f = parse_formula("<B>([A]p & <B><A>p)")
    assert f == Diamond(
        Modality.B,
        And(Box(Modality.A, Prop("p")), Diamond(Modality.B, Diamond(Modality.A, Prop("p")))),
    )


def test_parse_exponent_sugar():
    f = parse_formula("<B>^3 T")
    assert f == ModPower(False, Modality.B, 3, TOP)
    assert expand(f) == Diamond(
        Modality.B, Diamond(Modality.B, Diamond(Modality.B, TOP))
    )


def test_parse_big_conjunction():
    f = parse_formula("AND i=1..3 ( <B>^i T )")
    assert isinstance(f, BigAnd)
    got = expand(f)
    one = Diamond(Modality.B, TOP)
    two = Diamond(Modality.B, one)
    three = Diamond(Modality.B, two)
    assert got == And(And(one, two), three)


def test_big_conjunction_single_index():
    assert expand(parse_formula("AND i=2..2 ( <B>^i T )")) == Diamond(
        Modality.B, Diamond(Modality.B, TOP)
    )


def test_exponent_one_and_zero():
    assert expand(parse_formula("<B>^1 p")) == Diamond(Modality.B, Prop("p"))
    assert expand(parse_formula("<B>^0 p")) == Prop("p")


def test_parse_errors():
    with pytest.raises(FormulaError):
        parse_formula("p &")
    with pytest.raises(FormulaError, match="unknown modality"):
        parse_formula("<X>p")
    with pytest.raises(FormulaError, match="overflow"):
        parse_formula(f"<B>^{2**31 + 1} T")
    with pytest.raises(FormulaError, match="unbound"):
        parse_formula("<B>^i T")
    with pytest.raises(FormulaError, match="empty conjunction"):
        parse_formula("AND i=3..1 (p)")


def test_expand_guard():
    with pytest.raises(ResourceLimitError):
        expand(parse_formula("<B>^100000 T"), max_size=1000)


def test_make_ell():
    assert expand(make_ell(2)) == And(Box(Modality.B, BOTTOM), TOP)
    want = And(
        Box(Modality.B, Box(Modality.B, Box(Modality.B, BOTTOM))),
        Diamond(Modality.B, Diamond(Modality.B, TOP)),
    )
    assert expand(make_ell(4)) == want
    with pytest.raises(ValueError):
        make_ell(1)


def test_ell_selects_exact_length(k2):
    # oracle evaluation: ell(k) holds exactly on the length-k tracks
    config = OracleConfig(10)
    for track in all_tracks(k2, 0, 9):
        for k in range(2, 9):
            assert oracle_eval(k2, track, make_ell(k), config) == (len(track) == k)


def test_desugar_derived_modalities():
    assert desugar(parse_formula("<L>p")) == Diamond(
        Modality.A, Diamond(Modality.A, Prop("p"))
    )
    assert desugar(parse_formula("<Di>p")) == Diamond(
        Modality.BBAR, Diamond(Modality.EBAR, Prop("p"))
    )
    assert desugar(parse_formula("<O>p")) == Diamond(
        Modality.E, Diamond(Modality.BBAR, Prop("p"))
    )
    assert desugar(parse_formula("[L]p")) == Box(Modality.A, Box(Modality.A, Prop("p")))
    assert desugar(Prop("p")) == Prop("p")


def test_desugar_arrows():
    assert desugar(parse_formula("p -> q")) == Or(Not(Prop("p")), Prop("q"))
    p, q = Prop("p"), Prop("q")
    assert desugar(parse_formula("p <-> q")) == And(Or(Not(p), q), Or(Not(q), p))


def test_desugar_idempotent_normalize_idempotent():
    for text in ("<L>p & [Di]q", "p -> (q <-> r)", "<O>^2 p | <B>T", "p"):
        f = parse_formula(text)
        g = normalize(f)
        assert desugar(g) == g
        assert expand(g) == g
        # kept on the nodes: normalizing either again rebuilds nothing
        assert normalize(f) is g and normalize(g) is g


@pytest.mark.parametrize(
    "text",
    ["p", "!(p & q) | r", "[A](p | !q) & [E]!r", "<B>[Bi](T & <Ai>!F)", "(x1 | !x2) & (x3 | x4)"],
)
def test_a_formula_without_sugar_is_its_own_normal_form(text):
    f = parse_formula(text)
    assert expand(f) is f and desugar(f) is f and normalize(f) is f


def test_normalize_keeps_the_unchanged_branch():
    plain = parse_formula("[A](p | !q) & <B>r")
    negated = Not(plain)
    for text in ("p -> q", "<L>p", "[Di](p <-> q)", "<B>^2 p"):
        sugar = parse_formula(text)
        g = normalize(And(plain, sugar))
        assert g.left is plain and g.right == normalize(sugar)
        g = normalize(Or(sugar, negated))
        assert g.right is negated and g.left == normalize(sugar)
    # below a derived modality the child is shared too
    assert normalize(Diamond(Modality.L, plain)).child.child is plain


def test_nest_b():
    assert nest_b(normalize(parse_formula("<B>(<A>p & <B><A>p)"))) == 2
    assert nest_b(Prop("p")) == 0
    assert nest_b(normalize(parse_formula("<A><Bi>q"))) == 0
    assert nest_b(normalize(parse_formula("[B][B]F"))) == 2
    with pytest.raises(FragmentError):
        nest_b(normalize(parse_formula("<E>p")))


def test_classify():
    cases = [
        ("p & !q", FragmentClass.PROP),
        ("[A](p -> <A>q)", FragmentClass.AABAR),
        ("[E]!(e0 & e1)", FragmentClass.FORALL_AABE),
        ("<E>(e0 & e1) | <B>p", FragmentClass.EXISTS_AABE),
        ("x0 -> <Bi>x0", FragmentClass.AABAR_BBAR_EBAR),
        ("<B>p & <Ei>q", FragmentClass.AABAR_B_BBAR_EBAR),
        ("<E>p & <B>q", FragmentClass.OUT_OF_SCOPE),
    ]
    for text, want in cases:
        assert classify(normalize(parse_formula(text))) == want, text


def test_to_exists_dual_shapes():
    assert to_exists_dual(normalize(parse_formula("[A]p"))) == Diamond(
        Modality.A, Not(Prop("p"))
    )
    assert to_exists_dual(normalize(parse_formula("[E]!(e0 & e1)"))) == Diamond(
        Modality.E, And(Prop("e0"), Prop("e1"))
    )
    got = to_exists_dual(normalize(parse_formula("[A]p1 & [B]p2")))
    assert got == Or(
        Diamond(Modality.A, Not(Prop("p1"))), Diamond(Modality.B, Not(Prop("p2")))
    )
    with pytest.raises(FragmentError):
        to_exists_dual(normalize(parse_formula("<A>p")))


def test_dual_agrees_with_negation(k2):
    texts = ["[A]p", "[E]!(p & q)", "[A]p & [B](p | q)", "[Ai]([E]p & [B]q)", "p | !q"]
    config = OracleConfig(7)
    for text in texts:
        f = normalize(parse_formula(text))
        dual = to_exists_dual(f)
        for track in all_tracks(k2, 0, 5):
            assert oracle_eval(k2, track, dual, config) == (
                not oracle_eval(k2, track, f, config)
            )


def test_dual_lands_in_exists_fragment():
    for text in ("[E]!(p & q)", "[A](p | q) & [B]!p", "[B][E]p"):
        dual = to_exists_dual(normalize(parse_formula(text)))
        assert classify(dual) in (FragmentClass.EXISTS_AABE, FragmentClass.PROP)
        assert fm.matches_exists_grammar(dual)
        assert len(to_text(dual)) <= 2 * len(to_text(normalize(parse_formula(text))))


# random AST strategy for the printer/parser round trip
_names = st.sampled_from(["p", "q", "r0", "x_1"])
_mods = st.sampled_from(list(Modality))


def _formulas(depth):
    if depth == 0:
        return st.one_of(
            st.just(TOP), st.just(BOTTOM), st.builds(Prop, _names)
        )
    sub = _formulas(depth - 1)
    return st.one_of(
        st.builds(Prop, _names),
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Diamond, _mods, sub),
        st.builds(Box, _mods, sub),
        st.builds(
            ModPower,
            st.booleans(),
            _mods,
            st.integers(min_value=0, max_value=5),
            sub,
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_formulas(4))
def test_print_parse_round_trip(f):
    assert parse_formula(to_text(f)) == f


def test_print_parse_round_trip_bound_indices():
    for text in ("AND i=1..3 ( <B>^i T )", "AND j=0..2 ([A]^j p & <Bi>^2 q)"):
        f = parse_formula(text)
        assert parse_formula(to_text(f)) == f


@settings(max_examples=150, deadline=None)
@given(_formulas(3))
def test_expand_idempotent(f):
    once = expand(f)
    assert expand(once) == once


def _cnf_text(clauses):
    return " & ".join(
        f"(p{i % 7} | !p{(i * 3 + 1) % 7} | p{(i * 5 + 2) % 7})" for i in range(clauses)
    )


def test_modalities_never_compare_equal_trees(monkeypatch):
    # the modality set lives on each node, so a second, equal tree computes
    # its own instead of matching the first one's cache entry field by field
    first = normalize(parse_formula(_cnf_text(60)))
    second = normalize(parse_formula(_cnf_text(60)))
    assert first == second and first is not second

    def refuse(self, other):
        raise AssertionError("And.__eq__ ran")

    monkeypatch.setattr(And, "__eq__", refuse)
    assert fm.modalities(first) == frozenset()
    assert fm.modalities(second) == frozenset()
    assert fm.is_propositional(second)


@pytest.mark.parametrize(
    "text", ["[A](q | !p)", "[B]<A>p | <A>q", "[A](<B>T | [B]q)", "<Ai>p & [Bi]T"]
)
def test_no_formula_outlives_its_request(tmp_path, monkeypatch, text):
    model = tmp_path / "m.txt"
    model.write_text(K2_TEXT)
    formula = tmp_path / "f.txt"
    formula.write_text(text + "\n")
    refs = []
    normalize_ = fm.normalize

    def tracked(f):
        g = normalize_(f)
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(fm, "normalize", tracked)
    run(["check", "--model", str(model), "--formula", str(formula)], out=io.StringIO())
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
