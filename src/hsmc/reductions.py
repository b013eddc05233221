"""Generators turning QBF and SAT instances into model checking problems.

Both constructions encode truth assignments as initial tracks: the QBF
structure lays out a true/false state pair per variable in quantifier order,
and the matching formula alternates right-extension modalities (existential
over the chosen branch, universal over both) down to the matrix; the SAT
structure does the same with a purely propositional target, so a violating
initial track reads back as a satisfying assignment.  Used as randomized
end-to-end corpora for the checking engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import formula as fm
from .errors import FormulaError
from .kripke import KripkeStructure

_QUANTIFIERS = ("E", "A")


@dataclass(frozen=True)
class Qbf:
    """Prenex quantified boolean formula; prefix listed outermost first."""

    prefix: tuple[tuple[str, str], ...]
    matrix: fm.Formula

    def __post_init__(self) -> None:
        seen = set()
        for quant, var in self.prefix:
            if quant not in _QUANTIFIERS:
                raise FormulaError(f"bad quantifier {quant!r}")
            _check_variable(var)
            if var in seen:
                raise FormulaError(f"variable {var!r} bound twice")
            seen.add(var)
        free = _prop_names(self.matrix) - seen
        if free:
            raise FormulaError(f"unbound matrix variables: {sorted(free)}")
        if not fm.is_propositional(fm.normalize(self.matrix)):
            raise FormulaError("the matrix must be propositional")

    def __str__(self) -> str:
        head = " ".join(f"{q} {v}" for q, v in self.prefix)
        return f"{head}\n{fm.to_text(self.matrix)}\n"


@dataclass(frozen=True)
class CnfFormula:
    """Clauses as nonzero literal tuples over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise FormulaError("a CNF needs at least one variable")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise FormulaError(f"literal {lit} out of range")

    def variable_names(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.num_vars + 1)]

    def to_formula(self) -> fm.Formula:
        """The conjunction of clause disjunctions over letters x1..xn."""
        def literal(lit: int) -> fm.Formula:
            p = fm.Prop(f"x{abs(lit)}")
            return p if lit > 0 else fm.Not(p)

        def disj(clause: tuple[int, ...]) -> fm.Formula:
            if not clause:
                return fm.BOTTOM
            out = literal(clause[0])
            for lit in clause[1:]:
                out = fm.Or(out, literal(lit))
            return out

        if not self.clauses:
            return fm.TOP
        out = disj(self.clauses[0])
        for clause in self.clauses[1:]:
            out = fm.And(out, disj(clause))
        return out


def _check_variable(var: str) -> None:
    if var in ("start",) or var.endswith("_aux"):
        raise FormulaError(f"variable name {var!r} is reserved")
    if var in ("T", "F", "AND"):
        raise FormulaError(f"variable name {var!r} is reserved")


def _prop_names(f: fm.Formula) -> set[str]:
    if isinstance(f, fm.Prop):
        return {f.name}
    out: set[str] = set()
    for attr in ("child", "left", "right", "body"):
        sub = getattr(f, attr, None)
        if isinstance(sub, fm.Formula):
            out |= _prop_names(sub)
    return out


def parse_qbf(text: str) -> Qbf:
    """First non-comment line is the prefix (``E x2 A x1``), the rest the
    matrix in the formula grammar."""
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise FormulaError("empty QBF input")
    head = lines[0].split()
    if len(head) % 2 != 0:
        raise FormulaError("prefix must alternate quantifiers and variables")
    prefix = tuple((head[i], head[i + 1]) for i in range(0, len(head), 2))
    matrix = fm.parse_formula("\n".join(lines[1:]))
    return Qbf(prefix, matrix)


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS-like CNF: optional ``p cnf n m`` header, ``c`` comments,
    clauses as 0-terminated (or line-delimited) integer lists."""
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    declared: int | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise FormulaError(f"bad header {line!r}")
            declared = int(fields[2])
            continue
        for field in line.split():
            lit = int(field)
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(lit)
                num_vars = max(num_vars, abs(lit))
    if pending:
        clauses.append(tuple(pending))
    if declared is not None:
        num_vars = max(num_vars, declared)
    if num_vars == 0:
        raise FormulaError("no variables in CNF input")
    return CnfFormula(num_vars, tuple(clauses))


def qbf_to_kripke(qbf: Qbf) -> tuple[KripkeStructure, fm.Formula]:
    """Structure with 4n+3 states whose initial tracks walk one truth
    assignment, plus the formula that is modelled iff the QBF is true."""
    variables = [var for _, var in qbf.prefix]
    n = len(variables)
    ap = list(variables) + ["start"] + [f"{v}_aux" for v in variables]

    states = ["w0", "w1"]
    labels: dict[str, list[str]] = {
        "w0": list(variables) + ["start"],
        "w1": list(variables) + ["start"],
    }
    for var in variables:  # outermost first, matching track order
        for tag in ("t1", "t2"):
            name = f"w_{var}_{tag}"
            states.append(name)
            labels[name] = list(variables) + [f"{var}_aux"]
        for tag in ("f1", "f2"):
            name = f"w_{var}_{tag}"
            states.append(name)
            labels[name] = [v for v in variables if v != var] + [f"{var}_aux"]
    states.append("sink")
    labels["sink"] = list(variables)

    edges = [("w0", "w1"), ("sink", "sink")]
    if n == 0:
        edges.append(("w1", "sink"))
    else:
        first = variables[0]
        edges += [("w1", f"w_{first}_t1"), ("w1", f"w_{first}_f1")]
        for var in variables:
            edges += [(f"w_{var}_t1", f"w_{var}_t2"), (f"w_{var}_f1", f"w_{var}_f2")]
        for prev, nxt in zip(variables, variables[1:]):
            for src in ("t2", "f2"):
                for dst in ("t1", "f1"):
                    edges.append((f"w_{prev}_{src}", f"w_{nxt}_{dst}"))
        last = variables[-1]
        edges += [(f"w_{last}_t2", "sink"), (f"w_{last}_f2", "sink")]

    structure = KripkeStructure(states, edges, "w0", labels, ap)

    target = qbf.matrix
    for quant, var in reversed(qbf.prefix):  # innermost quantifier first
        probe = fm.Diamond(fm.Modality.A, fm.Prop(f"{var}_aux"))
        if quant == "E":
            target = fm.Diamond(fm.Modality.BBAR, fm.And(probe, target))
        else:
            target = fm.Box(fm.Modality.BBAR, fm.Implies(probe, target))
    return structure, fm.Implies(fm.Prop("start"), target)


def sat_to_kripke(cnf: CnfFormula) -> tuple[KripkeStructure, fm.Formula]:
    """Structure with 2n+1 states whose initial tracks pick one assignment,
    plus the propositional formula that is modelled iff the CNF is
    unsatisfiable."""
    variables = cnf.variable_names()
    states = ["w0"]
    labels: dict[str, list[str]] = {"w0": list(variables)}
    for i, var in enumerate(variables, start=1):
        states += [f"w{i}_t", f"w{i}_f"]
        labels[f"w{i}_t"] = list(variables)
        labels[f"w{i}_f"] = [v for v in variables if v != var]
    edges = [("w0", "w1_t"), ("w0", "w1_f")]
    for i in range(1, cnf.num_vars):
        for src in ("t", "f"):
            for dst in ("t", "f"):
                edges.append((f"w{i}_{src}", f"w{i+1}_{dst}"))
    n = cnf.num_vars
    edges += [(f"w{n}_t", f"w{n}_t"), (f"w{n}_f", f"w{n}_f")]
    structure = KripkeStructure(states, edges, "w0", labels, variables)
    return structure, fm.Not(cnf.to_formula())


def random_qbf(rng: random.Random, n_vars: int, max_depth: int = 3) -> Qbf:
    """Random prenex QBF over variables x1..xn with a small random matrix."""
    if n_vars < 0:
        raise ValueError("n_vars must be nonnegative")
    variables = [f"x{i}" for i in range(1, n_vars + 1)]
    prefix = tuple((rng.choice(_QUANTIFIERS), v) for v in reversed(variables))

    def matrix(depth: int) -> fm.Formula:
        if depth == 0 or not variables:
            if not variables:
                return fm.TOP if rng.random() < 0.5 else fm.BOTTOM
            leaf: fm.Formula = fm.Prop(rng.choice(variables))
            return fm.Not(leaf) if rng.random() < 0.4 else leaf
        op = rng.random()
        if op < 0.35:
            return fm.And(matrix(depth - 1), matrix(depth - 1))
        if op < 0.7:
            return fm.Or(matrix(depth - 1), matrix(depth - 1))
        if op < 0.85:
            return fm.Implies(matrix(depth - 1), matrix(depth - 1))
        return fm.Not(matrix(depth - 1))

    return Qbf(prefix, matrix(max_depth))


def random_cnf(
    rng: random.Random, n_vars: int, n_clauses: int, width: int = 3
) -> CnfFormula:
    """Random CNF with clauses of up to the given width over distinct
    variables."""
    if n_vars < 1:
        raise ValueError("n_vars must be positive")
    if n_clauses < 0:
        raise ValueError("n_clauses must be nonnegative")
    clauses = []
    for _ in range(n_clauses):
        size = rng.randint(1, min(width, n_vars))
        chosen = rng.sample(range(1, n_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(n_vars, tuple(clauses))
