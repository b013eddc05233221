"""Reference answers that do not come from the engines being timed.

QBF truth and CNF model counts are computed here by brute force, reading
the instance from the comment header ``hsmc gen`` writes into each formula
file.  The pair-free length used to pick each random instance's oracle
depth is computed by this module's own copy of the pruning rule, so the
generated inputs stay byte-identical whatever the program under test does.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# propositional matrices as written by ``hsmc gen qbf``

_TOKEN = re.compile(r"\s*(<->|->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read matrix at {text[pos:]!r}")
        out.append(match.group(1))
        pos = match.end()
    return out


def parse_prop(text: str):
    """Parse ``! & | -> <->`` over letters, ``T`` and ``F`` into nested
    tuples; ``->`` and ``<->`` associate to the right."""
    toks = _tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r} in {text!r}")
        pos[0] += 1
        return tok

    def iff():
        left = impl()
        if peek() == "<->":
            take()
            return ("iff", left, iff())
        return left

    def impl():
        left = disj()
        if peek() == "->":
            take()
            return ("imp", left, impl())
        return left

    def disj():
        out = conj()
        while peek() == "|":
            take()
            out = ("or", out, conj())
        return out

    def conj():
        out = unary()
        while peek() == "&":
            take()
            out = ("and", out, unary())
        return out

    def unary():
        if peek() == "!":
            take()
            return ("not", unary())
        tok = take()
        if tok == "(":
            inner = iff()
            take(")")
            return inner
        if tok == "T":
            return ("const", True)
        if tok == "F":
            return ("const", False)
        return ("var", tok)

    tree = iff()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return tree


def eval_prop(tree, env: dict[str, bool]) -> bool:
    op = tree[0]
    if op == "const":
        return tree[1]
    if op == "var":
        return env[tree[1]]
    if op == "not":
        return not eval_prop(tree[1], env)
    a = eval_prop(tree[1], env)
    if op == "and":
        return a and eval_prop(tree[2], env)
    if op == "or":
        return a or eval_prop(tree[2], env)
    if op == "imp":
        return not a or eval_prop(tree[2], env)
    return a == eval_prop(tree[2], env)


def qbf_search(formula_text: str) -> tuple[bool, int]:
    """Truth of the QBF recorded in a ``gen qbf`` formula file header, and
    the number of assignment-tree nodes a left-to-right, true-branch-first,
    short-circuiting evaluation visits (a size measure of the instance)."""
    lines = [line[1:].strip() for line in formula_text.splitlines() if line.startswith("#")]
    start = lines.index("generated from the QBF:")
    head, matrix = lines[start + 1].split(), parse_prop(lines[start + 2])
    prefix = [(head[i], head[i + 1]) for i in range(0, len(head), 2)]
    nodes = 0

    def rec(i: int, env: dict[str, bool]) -> bool:
        nonlocal nodes
        nodes += 1
        if i == len(prefix):
            return eval_prop(matrix, env)
        quant, var = prefix[i]
        branches = (rec(i + 1, {**env, var: value}) for value in (True, False))
        return any(branches) if quant == "E" else all(branches)

    return rec(0, {}), nodes


def read_cnf(formula_text: str) -> tuple[int, list[tuple[int, ...]]]:
    """The DIMACS instance recorded in a ``gen sat`` formula file header."""
    lines = formula_text.splitlines()
    header = next(i for i, line in enumerate(lines) if "generated from the CNF" in line)
    n_vars = int(lines[header].split()[-2])
    clauses, pending = [], []
    for field in lines[header + 1].lstrip("#").split():
        lit = int(field)
        if lit == 0:
            clauses.append(tuple(pending))
            pending = []
        else:
            pending.append(lit)
    return n_vars, clauses


def satisfies(clauses, assignment: dict[int, bool]) -> bool:
    return all(any(assignment[abs(l)] == (l > 0) for l in c) for c in clauses)


def count_models(n_vars: int, clauses) -> tuple[int, int]:
    """Number of satisfying assignments, and the clause-scan work: over all
    assignments, how many clauses a left-to-right scan reads before the
    first false one.  Clauses are evaluated on all 2^n assignments at once
    as bit sets (bit a is assignment a, variable i true iff bit i-1 of a
    is set)."""
    size = 1 << n_vars
    full = (1 << size) - 1
    true_sets = []
    for i in range(n_vars):
        block = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i zeros, then 2^i ones
        period = 1 << (i + 1)
        pattern = 0
        for offset in range(0, size, period):
            pattern |= block << offset
        true_sets.append(pattern)
    models, work = full, 0
    for clause in clauses:
        work += bin(models).count("1")
        sat = 0
        for lit in clause:
            bits = true_sets[abs(lit) - 1]
            sat |= bits if lit > 0 else full & ~bits
        models &= sat
    return bin(models).count("1"), work


def sat_assignment(track_text: str, n_vars: int) -> dict[int, bool]:
    """Read the assignment off a ``gen sat`` track.  A letter holds on a
    track iff every visited state carries it, and only ``w<i>_f`` lacks
    ``x<i>``: variables the track does not set false are true."""
    out = dict.fromkeys(range(1, n_vars + 1), True)
    for name in track_text.split()[1:]:
        index, value = name[1:].split("_")
        out[int(index)] = value == "t"
    return out


# ---------------------------------------------------------------------------
# pair-free track length (the representative length of criterion 6)


def tau(w: int, k: int) -> int:
    """The paper's representative length bound, as the program states it."""
    return min(1 + (1 + w) ** (2 * k + 4) + w, 1 + (k + 3) ** (w * w + 1) + w)


def _push(state: int, mask: int, depth: int, seen: frozenset, run: dict | None):
    """Admit one more state; None when the new descriptor element closes a
    depth-k indistinguishable pair, else the updated (seen, run)."""
    if depth == 0:
        key = (mask, state)
        return None if key in seen else (seen | {key}, run)
    if not mask >> state & 1:
        return seen, None
    if run is None:
        return seen, {state: -1}
    old = run.get(state)
    z = -1 if old is None else old + 1
    if z >= depth:
        return None
    run = {fin: min(b, z) for fin, b in run.items()}
    run[state] = z
    return seen, run


def longest_pair_free(
    successors: list[list[int]], depth: int, max_len: int, max_count: int
) -> int | None:
    """Longest track, from any state, whose descriptor sequence has no
    depth-k indistinguishable pair; None when it exceeds ``max_len`` or
    more than ``max_count`` such tracks exist."""
    n = len(successors)
    limit = 2 + n * n if depth == 0 else tau(n, depth)
    longest, count = 2, 0

    def walk(states: list[int], mask: int, seen, run) -> bool:
        nonlocal longest, count
        if len(states) >= limit:
            return True
        for nxt in successors[states[-1]]:
            new_mask = 0 if len(states) == 1 else mask | 1 << states[-1]
            pushed = _push(nxt, new_mask, depth, seen, run)
            if pushed is None:
                continue
            count += 1
            longest = max(longest, len(states) + 1)
            if count > max_count or longest > max_len:
                return False
            if not walk(states + [nxt], new_mask, *pushed):
                return False
        return True

    for start in range(n):
        if not walk([start], 0, frozenset(), None):
            return None
    return longest
