"""Interval temporal logic formulas: AST, concrete grammar, and fragment tools.

The grammar covers the six primitive interval modalities and their inverses
plus the derived ones, boolean connectives, and two succinct constructs:
modality exponents (``<B>^3 T``) and bounded conjunctions
(``AND i=1..3 ( <B>^i T )``).  ``expand`` removes the succinct constructs,
``desugar`` rewrites derived modalities and arrows so the checking engines
only ever see ``! & |`` and the six primitive modalities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import FormulaError, FragmentError, ResourceLimitError

MAX_EXPONENT = 2**31


class Modality(enum.Enum):
    """Interval modalities, named by their surface syntax (``i`` = inverse)."""

    A = "A"
    ABAR = "Ai"
    B = "B"
    BBAR = "Bi"
    E = "E"
    EBAR = "Ei"
    L = "L"
    LBAR = "Li"
    D = "D"
    DBAR = "Di"
    O = "O"
    OBAR = "Oi"


BASIC_MODALITIES = frozenset(
    {Modality.A, Modality.ABAR, Modality.B, Modality.BBAR, Modality.E, Modality.EBAR}
)

# the fragment of the representative engine (A Ai B Bi Ei): its checker, the
# CLI routing and the oracle's exactness warning all read it from here
REPRESENTATIVE_MODALITIES = BASIC_MODALITIES - {Modality.E}

_MODALITY_BY_NAME = {m.value: m for m in Modality}


class Formula:
    """Base class for formula nodes.  All nodes are immutable and hashable.

    A node's hash is computed once, from its class and its fields, when the
    node is built; the engines' memo tables then hash a subformula in
    constant time instead of walking its subtree.  Equality stays
    structural.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((type(self).__name__, self._values())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ between
        # processes, so a pickled hash would be stale
        return type(self), self._values()

    def __str__(self) -> str:
        return to_text(self)


def _node(cls):
    """A frozen dataclass formula node that keeps the base class's cached
    hash (``dataclass`` would otherwise generate a hash over the fields)."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Top(Formula):
    pass


@_node
class Bottom(Formula):
    pass


@_node
class Prop(Formula):
    name: str


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Diamond(Formula):
    mod: Modality
    child: Formula


@_node
class Box(Formula):
    mod: Modality
    child: Formula


@_node
class ModPower(Formula):
    """Sugar: ``<B>^n x`` or ``[B]^n x``; the exponent is a literal or a
    bound conjunction index."""

    box: bool
    mod: Modality
    power: int | str
    child: Formula


@_node
class BigAnd(Formula):
    """Sugar: ``AND i=lo..hi ( body )`` with the index usable in exponents."""

    var: str
    lo: int
    hi: int
    body: Formula


TOP = Top()
BOTTOM = Bottom()


class FragmentClass(enum.Enum):
    """Fragments the tool can route, ordered from least to most general."""

    PROP = "Prop"
    AABAR = "AAbar"
    FORALL_AABE = "ForallAAbarBE"
    EXISTS_AABE = "ExistsAAbarBE"
    AABAR_BBAR_EBAR = "AAbarBbarEbar"
    AABAR_B_BBAR_EBAR = "AAbarBBbarEbar"
    OUT_OF_SCOPE = "OutOfScope"


# ---------------------------------------------------------------------------
# concrete syntax


_RESERVED = {"T", "F", "AND"}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()

    def _error(self, msg: str, pos: int):
        raise FormulaError(msg, pos)

    def _scan(self) -> None:
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            start = i
            if c in "()!&|^=":
                self.tokens.append((c, c, start))
                i += 1
            elif c == "-":
                if text[i : i + 2] != "->":
                    self._error("expected '->'", start)
                self.tokens.append(("->", "->", start))
                i += 2
            elif c == ".":
                if text[i : i + 2] != "..":
                    self._error("expected '..'", start)
                self.tokens.append(("..", "..", start))
                i += 2
            elif c == "<":
                if text[i : i + 3] == "<->":
                    self.tokens.append(("<->", "<->", start))
                    i += 3
                    continue
                j = text.find(">", i)
                if j < 0:
                    self._error("unterminated modality", start)
                name = text[i + 1 : j]
                if name not in _MODALITY_BY_NAME:
                    self._error(f"unknown modality {name!r}", start)
                self.tokens.append(("dia", _MODALITY_BY_NAME[name], start))
                i = j + 1
            elif c == "[":
                j = text.find("]", i)
                if j < 0:
                    self._error("unterminated modality", start)
                name = text[i + 1 : j]
                if name not in _MODALITY_BY_NAME:
                    self._error(f"unknown modality {name!r}", start)
                self.tokens.append(("box", _MODALITY_BY_NAME[name], start))
                i = j + 1
            elif c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                value = int(text[i:j])
                if value > MAX_EXPONENT:
                    self._error(f"exponent overflow: {value} > 2^31", start)
                self.tokens.append(("num", value, start))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word == "T":
                    self.tokens.append(("T", word, start))
                elif word == "F":
                    self.tokens.append(("F", word, start))
                elif word == "AND":
                    self.tokens.append(("AND", word, start))
                else:
                    self.tokens.append(("ident", word, start))
                i = j
            else:
                self._error(f"unexpected character {c!r}", start)
        self.tokens.append(("eof", None, n))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _Scanner(text).tokens
        self.i = 0
        self.indices: list[str] = []

    def _peek(self) -> tuple[str, object, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str) -> tuple[str, object, int]:
        tok = self._next()
        if tok[0] != kind:
            raise FormulaError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok[0] != "eof":
            raise FormulaError(f"unexpected trailing {tok[0]!r}", tok[2])
        return f

    def _iff(self) -> Formula:
        left = self._implies()
        if self._peek()[0] == "<->":
            self._next()
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._peek()[0] == "->":
            self._next()
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        f = self._and()
        while self._peek()[0] == "|":
            self._next()
            f = Or(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self._peek()[0] == "&":
            self._next()
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        kind, value, pos = self._peek()
        if kind == "!":
            self._next()
            return Not(self._unary())
        if kind in ("dia", "box"):
            self._next()
            box = kind == "box"
            mod: Modality = value  # type: ignore[assignment]
            if self._peek()[0] == "^":
                self._next()
                ekind, evalue, epos = self._next()
                if ekind == "num":
                    power: int | str = evalue  # type: ignore[assignment]
                elif ekind == "ident":
                    if evalue not in self.indices:
                        raise FormulaError(f"unbound exponent index {evalue!r}", epos)
                    power = evalue  # type: ignore[assignment]
                else:
                    raise FormulaError("exponent must be a number or an index", epos)
                return ModPower(box, mod, power, self._unary())
            child = self._unary()
            return Box(mod, child) if box else Diamond(mod, child)
        return self._atom()

    def _atom(self) -> Formula:
        kind, value, pos = self._next()
        if kind == "T":
            return TOP
        if kind == "F":
            return BOTTOM
        if kind == "ident":
            return Prop(value)  # type: ignore[arg-type]
        if kind == "(":
            f = self._iff()
            self._expect(")")
            return f
        if kind == "AND":
            var = self._expect("ident")[1]
            self._expect("=")
            lo = self._expect("num")[1]
            self._expect("..")
            hi = self._expect("num")[1]
            if lo > hi:  # type: ignore[operator]
                raise FormulaError(f"empty conjunction range {lo}..{hi}", pos)
            self._expect("(")
            self.indices.append(var)  # type: ignore[arg-type]
            body = self._iff()
            self.indices.pop()
            self._expect(")")
            return BigAnd(var, lo, hi, body)  # type: ignore[arg-type]
        raise FormulaError(f"unexpected {kind!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse a formula; ``#`` starts a comment running to end of line."""
    stripped = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    return _Parser(stripped).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_IFF, _PREC_IMPL, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(1, 7)


def to_text(f: Formula) -> str:
    """Render a formula in the concrete grammar; parses back to an equal tree."""
    return _fmt(f, 0)


def _wrap(s: str, prec: int, parent: int) -> str:
    return f"({s})" if prec < parent else s


def _fmt(f: Formula, parent: int) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Not):
        return _wrap("!" + _fmt(f.child, _PREC_UNARY), _PREC_UNARY, parent)
    if isinstance(f, Diamond):
        return _wrap(f"<{f.mod.value}>" + _fmt(f.child, _PREC_UNARY), _PREC_UNARY, parent)
    if isinstance(f, Box):
        return _wrap(f"[{f.mod.value}]" + _fmt(f.child, _PREC_UNARY), _PREC_UNARY, parent)
    if isinstance(f, ModPower):
        bra = f"[{f.mod.value}]" if f.box else f"<{f.mod.value}>"
        return _wrap(
            f"{bra}^{f.power} " + _fmt(f.child, _PREC_UNARY), _PREC_UNARY, parent
        )
    if isinstance(f, BigAnd):
        return _wrap(
            f"AND {f.var}={f.lo}..{f.hi} ({_fmt(f.body, 0)})", _PREC_UNARY, parent
        )
    if isinstance(f, And):
        s = _fmt(f.left, _PREC_AND) + " & " + _fmt(f.right, _PREC_AND + 1)
        return _wrap(s, _PREC_AND, parent)
    if isinstance(f, Or):
        s = _fmt(f.left, _PREC_OR) + " | " + _fmt(f.right, _PREC_OR + 1)
        return _wrap(s, _PREC_OR, parent)
    if isinstance(f, Implies):
        s = _fmt(f.left, _PREC_IMPL + 1) + " -> " + _fmt(f.right, _PREC_IMPL)
        return _wrap(s, _PREC_IMPL, parent)
    if isinstance(f, Iff):
        s = _fmt(f.left, _PREC_IFF + 1) + " <-> " + _fmt(f.right, _PREC_IFF)
        return _wrap(s, _PREC_IFF, parent)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# expansion and desugaring


def expand(f: Formula, max_size: int = 1_000_000) -> Formula:
    """Remove the succinct constructs (exponents and bounded conjunctions).

    ``max_size`` guards against exponent blow-up; exceeding it raises
    ResourceLimitError.
    """
    budget = [max_size]
    return _expand(f, {}, budget)


def _spend(budget: list[int], n: int = 1) -> None:
    budget[0] -= n
    if budget[0] < 0:
        raise ResourceLimitError("expanded formula exceeds the size cap")


def _expand(f: Formula, env: dict[str, int], budget: list[int]) -> Formula:
    _spend(budget)
    if isinstance(f, (Top, Bottom, Prop)):
        return f
    if isinstance(f, Not):
        return Not(_expand(f.child, env, budget))
    if isinstance(f, And):
        return And(_expand(f.left, env, budget), _expand(f.right, env, budget))
    if isinstance(f, Or):
        return Or(_expand(f.left, env, budget), _expand(f.right, env, budget))
    if isinstance(f, Implies):
        return Implies(_expand(f.left, env, budget), _expand(f.right, env, budget))
    if isinstance(f, Iff):
        return Iff(_expand(f.left, env, budget), _expand(f.right, env, budget))
    if isinstance(f, Diamond):
        return Diamond(f.mod, _expand(f.child, env, budget))
    if isinstance(f, Box):
        return Box(f.mod, _expand(f.child, env, budget))
    if isinstance(f, ModPower):
        if isinstance(f.power, str):
            if f.power not in env:
                raise FormulaError(f"unbound exponent index {f.power!r}")
            k = env[f.power]
        else:
            k = f.power
        out = _expand(f.child, env, budget)
        wrap = Box if f.box else Diamond
        for _ in range(k):
            _spend(budget)
            out = wrap(f.mod, out)
        return out
    if isinstance(f, BigAnd):
        if f.lo > f.hi:
            raise FormulaError(f"empty conjunction range {f.lo}..{f.hi}")
        parts = []
        for i in range(f.lo, f.hi + 1):
            env2 = dict(env)
            env2[f.var] = i
            parts.append(_expand(f.body, env2, budget))
        out = parts[0]
        for p in parts[1:]:
            _spend(budget)
            out = And(out, p)
        return out
    raise TypeError(f"not a formula node: {f!r}")


_DERIVED = {
    Modality.L: (Modality.A, Modality.A),
    Modality.LBAR: (Modality.ABAR, Modality.ABAR),
    Modality.D: (Modality.B, Modality.E),
    Modality.DBAR: (Modality.BBAR, Modality.EBAR),
    Modality.O: (Modality.E, Modality.BBAR),
    Modality.OBAR: (Modality.B, Modality.EBAR),
}


def desugar(f: Formula) -> Formula:
    """Rewrite derived modalities into the six primitive ones and eliminate
    ``->``/``<->``.  Expects an expanded formula."""
    if isinstance(f, (Top, Bottom, Prop)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.child))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return Or(desugar(f.left), desugar(f.right))
    if isinstance(f, Implies):
        return Or(Not(desugar(f.left)), desugar(f.right))
    if isinstance(f, Iff):
        left, right = desugar(f.left), desugar(f.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(f, Diamond):
        child = desugar(f.child)
        if f.mod in _DERIVED:
            outer, inner = _DERIVED[f.mod]
            return Diamond(outer, Diamond(inner, child))
        return Diamond(f.mod, child)
    if isinstance(f, Box):
        child = desugar(f.child)
        if f.mod in _DERIVED:
            outer, inner = _DERIVED[f.mod]
            return Box(outer, Box(inner, child))
        return Box(f.mod, child)
    if isinstance(f, (ModPower, BigAnd)):
        raise FormulaError("expand the formula before desugaring")
    raise TypeError(f"not a formula node: {f!r}")


def normalize(f: Formula) -> Formula:
    """expand followed by desugar: the form every engine works on."""
    return desugar(expand(f))


# ---------------------------------------------------------------------------
# fragment analysis


def modalities(f: Formula) -> frozenset[Modality]:
    """The set of modalities occurring in a desugared formula, kept on the
    node after the first call, as its hash is.  An equal but distinct tree
    computes its own, so no lookup compares subtrees and nothing outlives
    the formula."""
    mods = f.__dict__.get("_modalities")
    if mods is not None:
        return mods
    if isinstance(f, (Top, Bottom, Prop)):
        mods = frozenset()
    elif isinstance(f, Not):
        mods = modalities(f.child)
    elif isinstance(f, (And, Or, Implies, Iff)):
        mods = modalities(f.left) | modalities(f.right)
    elif isinstance(f, (Diamond, Box)):
        mods = modalities(f.child) | {f.mod}
    else:
        raise FormulaError("normalize the formula before fragment analysis")
    object.__setattr__(f, "_modalities", mods)
    return mods


def is_propositional(f: Formula) -> bool:
    return not modalities(f)


def nest_b(f: Formula) -> int:
    """Nesting depth of the started-by modality; drives the representative
    length bound.  Defined on normalized formulas without ``<E>``/``[E]``
    (those are routed to other engines)."""
    if isinstance(f, (Top, Bottom, Prop)):
        return 0
    if isinstance(f, Not):
        return nest_b(f.child)
    if isinstance(f, (And, Or)):
        return max(nest_b(f.left), nest_b(f.right))
    if isinstance(f, (Diamond, Box)):
        if f.mod == Modality.E:
            raise FragmentError("nest_b is undefined on formulas with <E>/[E]")
        if f.mod not in BASIC_MODALITIES:
            raise FormulaError("normalize the formula before nest_b")
        inner = nest_b(f.child)
        return inner + 1 if f.mod == Modality.B else inner
    raise FormulaError("normalize the formula before nest_b")


def matches_forall_grammar(f: Formula) -> bool:
    """Whether a normalized formula fits the universal grammar: conjunctions
    of universal meets/met-by/starts/finishes modalities over propositional
    kernels, negation inside the kernels only."""
    if is_propositional(f):
        return True
    if isinstance(f, And):
        return matches_forall_grammar(f.left) and matches_forall_grammar(f.right)
    if isinstance(f, Box) and f.mod in (
        Modality.A,
        Modality.ABAR,
        Modality.B,
        Modality.E,
    ):
        return matches_forall_grammar(f.child)
    return False


def matches_exists_grammar(f: Formula) -> bool:
    """Dual of matches_forall_grammar: disjunctions of existential
    modalities over propositional kernels."""
    if is_propositional(f):
        return True
    if isinstance(f, Or):
        return matches_exists_grammar(f.left) and matches_exists_grammar(f.right)
    if isinstance(f, Diamond) and f.mod in (
        Modality.A,
        Modality.ABAR,
        Modality.B,
        Modality.E,
    ):
        return matches_exists_grammar(f.child)
    return False


def classify(f: Formula) -> FragmentClass:
    """Least fragment containing a normalized formula, in the order of
    FragmentClass."""
    mods = modalities(f)
    if not mods:
        return FragmentClass.PROP
    if mods <= {Modality.A, Modality.ABAR}:
        return FragmentClass.AABAR
    if matches_forall_grammar(f):
        return FragmentClass.FORALL_AABE
    if matches_exists_grammar(f):
        return FragmentClass.EXISTS_AABE
    if mods <= {Modality.A, Modality.ABAR, Modality.BBAR, Modality.EBAR}:
        return FragmentClass.AABAR_BBAR_EBAR
    if mods <= {
        Modality.A,
        Modality.ABAR,
        Modality.B,
        Modality.BBAR,
        Modality.EBAR,
    }:
        return FragmentClass.AABAR_B_BBAR_EBAR
    return FragmentClass.OUT_OF_SCOPE


def _negate_prop(f: Formula) -> Formula:
    if isinstance(f, Top):
        return BOTTOM
    if isinstance(f, Bottom):
        return TOP
    if isinstance(f, Not):
        return f.child
    return Not(f)


def _dual(f: Formula) -> Formula:
    if is_propositional(f):
        return _negate_prop(f)
    if isinstance(f, And):
        return Or(_dual(f.left), _dual(f.right))
    if isinstance(f, Box):
        return Diamond(f.mod, _dual(f.child))
    raise FragmentError("formula is not in the universal meets/starts/finishes fragment")


def to_exists_dual(f: Formula) -> Formula:
    """Turn a universal-fragment formula into the existential-fragment
    equivalent of its negation (at most double length).

    Pure propositional input is accepted as the degenerate universal case.
    """
    if not matches_forall_grammar(f):
        raise FragmentError(
            f"to_exists_dual expects a universal-fragment formula, got {classify(f).value}"
        )
    return _dual(f)


def make_ell(k: int) -> Formula:
    """Formula satisfied exactly by tracks of length k (k >= 2), using the
    exponent sugar: ``[B]^(k-1) F & <B>^(k-2) T``."""
    if k < 2:
        raise ValueError("track lengths start at 2")
    return And(
        ModPower(True, Modality.B, k - 1, BOTTOM),
        ModPower(False, Modality.B, k - 2, TOP),
    )
