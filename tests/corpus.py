"""Seeded random instance generators and independent brute-force deciders
shared by the property and acceptance suites.

Everything here stays deliberately naive: truth of a QBF by assignment
recursion, CNF satisfiability by assignment enumeration, track generation by
random walk, HS semantics by the satisfaction clauses read on state tuples.
The point is to referee the clever code paths, not to be fast.
"""

from __future__ import annotations

import itertools
import random

import hsmc.formula as fm
from hsmc import CnfFormula, KripkeStructure, Qbf, Track
from hsmc.oracle import _chains_from, _chains_into, _tracks_into, all_tracks
from hsmc.unravel import Direction, unravel


def random_structure(
    rng: random.Random,
    max_states: int = 4,
    max_props: int = 2,
    edge_prob: float = 0.35,
) -> KripkeStructure:
    n = rng.randint(1, max_states)
    names = [f"s{i}" for i in range(n)]
    props = [f"p{i}" for i in range(rng.randint(1, max_props))]
    edges = []
    for u in names:
        out = [v for v in names if rng.random() < edge_prob]
        if not out:
            out = [rng.choice(names)]
        edges.extend((u, v) for v in out)
    labels = {u: [p for p in props if rng.random() < 0.5] for u in names}
    return KripkeStructure(names, edges, names[0], labels, props)


_CHECKER_MODS = [
    fm.Modality.A,
    fm.Modality.ABAR,
    fm.Modality.B,
    fm.Modality.BBAR,
    fm.Modality.EBAR,
]


def random_checker_formula(
    rng: random.Random,
    props: list[str],
    max_modalities: int = 3,
    max_nest: int = 2,
    mods: list[fm.Modality] = _CHECKER_MODS,
) -> fm.Formula:
    """Random formula over ``mods``, by default meets/met-by/started-by and
    the two inverses; ``max_nest`` bounds the nesting of started-by."""
    budget = [rng.randint(0, max_modalities)]

    def go(depth: int, nest_left: int) -> fm.Formula:
        choices = ["leaf"]
        if depth > 0:
            choices += ["not", "and", "or"]
            if budget[0] > 0:
                choices += ["modal", "modal"]
        kind = rng.choice(choices)
        if kind == "leaf":
            r = rng.random()
            if r < 0.1:
                return fm.TOP
            if r < 0.2:
                return fm.BOTTOM
            return fm.Prop(rng.choice(props))
        if kind == "not":
            return fm.Not(go(depth - 1, nest_left))
        if kind == "and":
            return fm.And(go(depth - 1, nest_left), go(depth - 1, nest_left))
        if kind == "or":
            return fm.Or(go(depth - 1, nest_left), go(depth - 1, nest_left))
        usable = [m for m in mods if m != fm.Modality.B or nest_left > 0]
        mod = rng.choice(usable)
        budget[0] -= 1
        child = go(depth - 1, nest_left - (1 if mod is fm.Modality.B else 0))
        return fm.Diamond(mod, child) if rng.random() < 0.5 else fm.Box(mod, child)

    return go(3, max_nest)


_FORALL_MODS = [fm.Modality.A, fm.Modality.ABAR, fm.Modality.B, fm.Modality.E]


def random_forall_formula(
    rng: random.Random, props: list[str], max_boxes: int = 3
) -> fm.Formula:
    """Random formula in the universal grammar: conjunctions of boxes over
    propositional kernels."""

    def kernel(depth: int) -> fm.Formula:
        if depth == 0:
            r = rng.random()
            if r < 0.1:
                return fm.TOP
            if r < 0.2:
                return fm.BOTTOM
            return fm.Prop(rng.choice(props))
        r = rng.random()
        if r < 0.3:
            return fm.Not(kernel(depth - 1))
        if r < 0.65:
            return fm.And(kernel(depth - 1), kernel(depth - 1))
        return fm.Or(kernel(depth - 1), kernel(depth - 1))

    def go(boxes: int) -> fm.Formula:
        if boxes == 0:
            return kernel(rng.randint(0, 2))
        r = rng.random()
        if r < 0.55:
            return fm.Box(rng.choice(_FORALL_MODS), go(boxes - 1))
        if r < 0.8:
            split = rng.randint(0, boxes - 1)
            return fm.And(go(split), go(boxes - 1 - split))
        return kernel(rng.randint(0, 2))

    return go(rng.randint(1, max_boxes))


class LiteralOracle:
    """The HS satisfaction clauses read literally on state tuples, with one
    memo keyed by (track, subformula): the referee of ``hsmc.oracle``, whose
    enumerators it shares (``test_oracle`` referees those separately)."""

    def __init__(self, structure: KripkeStructure, depth_bound: int):
        self.k = structure
        self.depth = depth_bound
        self.memo: dict[tuple[tuple[int, ...], fm.Formula], bool] = {}

    def eval(self, states: tuple[int, ...], f: fm.Formula) -> bool:
        key = (states, f)
        if key not in self.memo:
            self.memo[key] = self._eval(states, f)
        return self.memo[key]

    def _eval(self, states: tuple[int, ...], f: fm.Formula) -> bool:
        if isinstance(f, fm.Top):
            return True
        if isinstance(f, fm.Bottom):
            return False
        if isinstance(f, fm.Prop):
            if f.name not in self.k.propositions:
                return False
            mask = self.k.prop_mask(f.name)
            return all(self.k.label_mask(s) & mask for s in states)
        if isinstance(f, fm.Not):
            return not self.eval(states, f.child)
        if isinstance(f, fm.And):
            return self.eval(states, f.left) and self.eval(states, f.right)
        if isinstance(f, fm.Or):
            return self.eval(states, f.left) or self.eval(states, f.right)
        if isinstance(f, fm.Diamond):
            return any(self.eval(t, f.child) for t in self._related(states, f.mod))
        if isinstance(f, fm.Box):
            return all(self.eval(t, f.child) for t in self._related(states, f.mod))
        raise TypeError(f"not a normalized formula: {f!r}")

    def _related(self, states: tuple[int, ...], mod: fm.Modality):
        M, k, depth = fm.Modality, self.k, self.depth
        if mod is M.A:
            return (t.states for t in all_tracks(k, states[-1], depth))
        if mod is M.ABAR:
            return (t.states for t in _tracks_into(k, states[0], depth))
        if mod is M.B:
            return (states[:i] for i in range(2, len(states)))
        if mod is M.E:
            return (states[i:] for i in range(1, len(states) - 1))
        if mod is M.BBAR:
            return (states + ext for ext in _chains_from(k, states[-1], depth - 1))
        if mod is M.EBAR:
            return (ext + states for ext in _chains_into(k, states[0], depth - 1))
        raise TypeError(f"not a primitive modality: {mod!r}")

    def first_violation(self, f: fm.Formula) -> Track | None:
        """The first initial track, in enumeration order, falsifying ``f``."""
        g = fm.normalize(f)
        for t in all_tracks(self.k, self.k.initial, self.depth):
            if not self.eval(t.states, g):
                return t
        return None


def random_walk(rng: random.Random, structure: KripkeStructure, length: int) -> Track:
    states = [rng.randrange(structure.n_states)]
    while len(states) < length:
        states.append(rng.choice(structure.successors(states[-1])))
    return Track(tuple(states))


def pair_free_stats(
    structure: KripkeStructure, depth: int, cap_count: int = 30_000
) -> tuple[int, int] | None:
    """Longest pair-free track length and the total representative count over
    all anchors; None when the count exceeds the cap (instance too big)."""
    longest, total = 2, 0
    for s in range(structure.n_states):
        for t in unravel(structure, s, depth, Direction.FORWARD):
            total += 1
            if total > cap_count:
                return None
            if len(t) > longest:
                longest = len(t)
    return longest, total


def eval_prop(f: fm.Formula, env: dict[str, bool]) -> bool:
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bottom):
        return False
    if isinstance(f, fm.Prop):
        return env[f.name]
    if isinstance(f, fm.Not):
        return not eval_prop(f.child, env)
    if isinstance(f, fm.And):
        return eval_prop(f.left, env) and eval_prop(f.right, env)
    if isinstance(f, fm.Or):
        return eval_prop(f.left, env) or eval_prop(f.right, env)
    if isinstance(f, fm.Implies):
        return not eval_prop(f.left, env) or eval_prop(f.right, env)
    if isinstance(f, fm.Iff):
        return eval_prop(f.left, env) == eval_prop(f.right, env)
    raise TypeError(f"not propositional: {f!r}")


def eval_qbf(qbf: Qbf) -> bool:
    """Assignment-recursion truth of a prenex QBF."""

    def rec(prefix, env):
        if not prefix:
            return eval_prop(qbf.matrix, env)
        (quant, var), rest = prefix[0], prefix[1:]
        branches = ({**env, var: value} for value in (True, False))
        if quant == "E":
            return any(rec(rest, b) for b in branches)
        return all(rec(rest, b) for b in branches)

    return rec(qbf.prefix, {})


def cnf_satisfiable(cnf: CnfFormula) -> bool:
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        env = {i + 1: b for i, b in enumerate(bits)}
        if all(
            any(env[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


def assignment_satisfies(cnf: CnfFormula, env: dict[int, bool]) -> bool:
    return all(
        any(env[abs(lit)] == (lit > 0) for lit in clause) for clause in cnf.clauses
    )
