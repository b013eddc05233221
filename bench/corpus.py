"""The four workloads: fixed fixtures plus seeded instances, written to disk.

Every request is one ``hsmc check``, ``counterexample`` or ``oracle``
invocation on files this module writes.  The seed alone fixes the files:
``gen`` sub-seeds are derived from it, and the random small structures, their
formulas and their oracle depths come from this module's own generator and
from ``referee.longest_pair_free``.

Seeded instances differ widely in cost, so medians and tails over a corpus
would follow the seed.  Each workload therefore also carries enough small
fixed requests that ``verdict_p50_ms`` and ``verdict_tail_ms`` fall on fixed
requests, while the seeded ones weigh in ``corpus_s``.
"""

from __future__ import annotations

import io
import os
import random
import re
from dataclasses import dataclass

import referee

QBF_MAX_TAU = "10000000"  # tau(35 states, 0) = 1,679,652 exceeds the default 10^6

K2 = """\
states: v0 v1
init: v0
label v0: p
label v1: q
edges: v0->v0 v0->v1 v1->v0 v1->v1
"""

FIG4 = """\
states: v0 v1 v2 v3
init: v0
edges: v0->v0 v0->v1 v0->v2 v1->v2 v1->v3 v2->v1 v2->v2 v2->v3 v3->v2 v3->v3
"""

SCHED = """\
states: v0 v1 v2 v3 u1 u2 u3
init: v0
label v1: p1
label u1: p1
label v2: p2
label u2: p2
label v3: p3
label u3: p3
edges: v0->v1 v0->v2 v0->v3 v1->u1 v2->u2 v3->u3 u1->v2 u1->v3 u2->v1 u2->v3 u3->v1 u3->v2
"""

MUTEX = """\
states: w0 w1 w2 w3 w4 w5 w6 w7 w8 w9
init: w0
label w0: x0
label w1: r0 x0
label w2: r1
label w3: r0 r1
label w4: r0 r1 e1
label w5: e1
label w6: r0 r1 e0 x0
label w7: e0 x0
label w8: r0 r1 e0 e1
label w9: e0 e1
edges: w0->w0 w0->w1 w0->w2 w1->w1 w1->w3 w1->w6 w2->w2 w2->w3 w2->w4 w3->w4 w3->w6 w3->w8 w4->w5 w5->w0 w6->w7 w7->w0 w8->w9 w9->w0
"""

FIXTURES = {"k2": K2, "fig4": FIG4, "sched": SCHED, "mutex": MUTEX}

_NO_GRANT = "(!r0 & !r1 & !e0 & !e1)"

# (fixture, formula, golden verdict, oracle depth that refutes a counterexample)
# "holds on any left-total structure" covers <A>T, [A]T and everything they
# imply; the mutex and sched verdicts are the acceptance criteria 2 and 3
REP_FLAT_FIXED = [
    ("mutex", "[A](r0 -> <A>e0 | <A><A>e0)", "holds", 8),  # 146,938 representatives
    ("mutex", f"[A](r0 -> [A](e0 | {_NO_GRANT}))", "violated", 8),
    ("mutex", "x0 -> <Bi>x0", "holds", 8),
    # small depth-0 checks: fig4 has 518 representatives
    ("fig4", "[A]<A>T", "holds", 6),
    ("fig4", "[A]<Ai>T", "holds", 6),  # the track itself ends where the next begins
    ("fig4", "<Bi>T", "holds", 6),
    ("fig4", "<A>p", "violated", 6),  # p labels nothing
    ("sched", "[Ai]F", "holds", 6),  # v0 has no predecessor
    ("sched", "<Bi>T", "holds", 6),
    ("sched", "<Ei>T", "violated", 6),
    ("k2", "<A>(p | q)", "holds", 6),  # v0 v0 and v1 v1 are homogeneous
    ("k2", "[A](p | q)", "violated", 6),  # v0 v1 carries neither letter throughout
    ("k2", "<Ei>T", "holds", 6),
    ("k2", "<Bi>T", "holds", 6),
    ("k2", "[Ai](p | q | <Ai>T)", "holds", 6),
    ("fig4", "<Ai>T", "holds", 6),  # v0 has a self-loop
]

REP_NESTED_FIXED = [
    ("fig4", "[B]<A>T", "holds", 6),  # 52,903 depth-1 representatives
    ("fig4", "[B](<A>T -> [A]<B>T)", "violated", 6),  # length-2 tracks have no prefix
    ("sched", "[B]<A>T", "holds", 6),  # 8,886 representatives
    ("sched", "[B]<Ai>T", "violated", 6),  # v0 has no predecessor
    ("k2", "[B]<Ai>T", "holds", 6),  # every k2 state has a predecessor
    ("k2", "[B][B]<A>T", "holds", 6),
    ("k2", "[B](<A>p -> [B]<A>T)", "holds", 6),
    ("k2", "[B][B](<A>p | <A>q)", "holds", 6),  # both states reach v0 and v1
    ("k2", "[B][B]<Ai>(p | q)", "holds", 6),  # every k2 state has p or q
    ("k2", "[B][B][B]<A>T", "holds", 6),  # depth 3
    ("k2", "[B][B][B]F", "violated", 6),  # true only on tracks of at most 4 states
    ("k2", "<B>(<A>p & <B>(<A>p & <B><A>p))", "violated", 6),
]

# guard probes: no verdict is expected within the limit (fig4, depth 2) or
# the --max-tau guard refuses outright (mutex, tau(10, 1) = 1,771,572)
REP_NESTED_PROBES = [
    ("fig4", "[B][B]<A>T", "holds", "timeout"),
    ("mutex", "<B><A>e0 | [A]T", "holds", "refused"),
]

# universal starts/finishes and propositional formulas: `check` routes
# them to the conp engine
CONP_FIXED = [
    ("mutex", "[E]!(e0 & e1)", "violated", 6),  # acceptance criterion 3
    ("mutex", "[B]!(e0 & e1)", "holds", 6),  # every prefix starts at w0
    ("k2", "[B](p | !p)", "holds", 6),
    ("k2", "[E](p | q)", "violated", 6),
    ("k2", "p | !p", "holds", 6),
    ("k2", "p", "violated", 6),
    ("sched", "[E](p1 | p2 | p3)", "violated", 6),  # u1 v2 carries no letter throughout
    ("sched", "[B](p1 | !p1)", "holds", 6),
    ("fig4", "[E]F", "violated", 6),  # a three-state track has a proper suffix
    ("fig4", "[B]T", "holds", 6),
    ("fig4", "T", "holds", 6),
    ("k2", "[E]T", "holds", 6),
    ("k2", "[B]F", "violated", 6),
    ("k2", "[E](q | !q)", "holds", 6),
    ("sched", "[B]T", "holds", 6),
    ("fig4", "[E]T", "holds", 6),
    ("fig4", "p | !p", "holds", 6),  # p labels nothing, so !p holds everywhere
    ("k2", "q | !q", "holds", 6),
]

_CHI = "(<E><Ai>{0} & <E><Ai>{1})"
SCHED_ORACLE = [
    (
        "[E](<E>^4 T -> ({} | {} | {}))".format(
            _CHI.format("p1", "p2"), _CHI.format("p1", "p3"), _CHI.format("p2", "p3")
        ),
        "holds",
    ),
    ("[E](<E>^10 T -> <E><Ai>p3)", "violated"),
    ("[E](<E>^6 T -> (<E><Ai>p1 & <E><Ai>p2 & <E><Ai>p3))", "violated"),
]

# Seeded instances vary widely in cost, so each family is drawn from a
# larger seeded pool and picked by a size measure the referee computes,
# which keeps the cost profile of a corpus the same from seed to seed.
# `oracle` requests on tautologies, each 25-40 ms on the reference machine:
# they sit above the random instances, so that the 11th-slowest request of
# `small-verify` (its tail) is one of them rather than a seeded outlier
ORACLE_FIXED = [
    ("k2", "[E](<E>T | !<E>T)", 10),
    ("k2", "[E](p | !p)", 10),
    ("k2", "[E](q | !q)", 10),
    ("k2", "[E](<Ai>T | !<Ai>T)", 10),
    ("fig4", "[E](<E>T | !<E>T)", 8),
    ("fig4", "[E](p | !p)", 8),
    ("fig4", "[E](<A>T | !<A>T)", 8),
    ("sched", "[E](<E>T | !<E>T)", 14),
    ("sched", "[E](p1 | !p1)", 14),
    ("sched", "[E](<A>T | !<A>T)", 14),
    ("mutex", "[E](<E>T | !<E>T)", 8),
    ("mutex", "[E](x0 | !x0)", 8),
]

QBF_POOL, QBF_INSTANCES = 48, 6  # 8 variables each, picked at evenly spaced size ranks
SAT_POOL = 9  # candidates per variable count and density
SAT_DENSE_VARS = (8, 9, 10, 12)  # 5n clauses: unsatisfiable ones, exhaustive tables
SAT_SPARSE_VARS = (11, 12)  # n clauses: satisfiable ones, the search stops early
SMALL_INSTANCES = 1000
# the oracle's work grows with the tracks it can reach: witnesses of up to
# `depth` states, extended by up to `depth` states per <Bi>/<Ei>
SMALL_MAX_TRACKS = 4000


@dataclass
class Request:
    name: str
    argv: list[str]
    route: str
    model: str
    formula: str
    expect: str | None = None  # None: the oracle cross-check inside the request decides
    refute_depth: int = 8
    cnf: bool = False  # a SAT reduction: the counterexample encodes an assignment
    probe: str | None = None


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _gen(run, workdir: str, name: str, args: list[str]) -> tuple[str, str]:
    prefix = os.path.join(workdir, name)
    code = run(["gen", *args, "--out", prefix], out=io.StringIO())
    if code != 0:
        raise RuntimeError(f"hsmc gen {' '.join(args)} exited with {code}")
    return prefix + ".model", prefix + ".formula"


def _check(model: str, formula: str, *extra: str) -> list[str]:
    return ["check", "--model", model, "--formula", formula, *extra]


def _fixtures(workdir: str) -> dict[str, str]:
    return {
        name: _write(os.path.join(workdir, f"{name}.model"), text)
        for name, text in FIXTURES.items()
    }


def _fixed(workdir, models, cases, route, tag) -> list[Request]:
    out = []
    for i, (fixture, text, golden, depth) in enumerate(cases):
        formula = _write(os.path.join(workdir, f"{tag}{i}.formula"), text + "\n")
        out.append(
            Request(
                f"{fixture}:{text}",
                _check(models[fixture], formula),
                route,
                models[fixture],
                formula,
                golden,
                depth,
            )
        )
    return out


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def rep_flat(seed: int, workdir: str, run) -> list[Request]:
    models = _fixtures(workdir)
    out = _fixed(workdir, models, REP_FLAT_FIXED, "representative", "flat")
    pool = []
    for j in range(QBF_POOL):
        sub = seed * 1000 + j
        model, formula = _gen(run, workdir, f"qbf{j}", ["qbf", "--vars", "8", "--seed", str(sub)])
        truth, nodes = referee.qbf_search(_read(formula))
        pool.append((nodes, j, sub, model, formula, truth))
    pool.sort()
    for i in range(QBF_INSTANCES):
        nodes, _, sub, model, formula, truth = pool[(2 * i + 1) * QBF_POOL // (2 * QBF_INSTANCES)]
        out.append(
            Request(
                f"qbf n=8 seed={sub} nodes={nodes}",
                _check(model, formula, "--max-tau", QBF_MAX_TAU),
                "representative",
                model,
                formula,
                "holds" if truth else "violated",
                refute_depth=2 * 8 + 6,
            )
        )
    return out


def rep_nested(seed: int, workdir: str, run) -> list[Request]:
    models = _fixtures(workdir)
    return _fixed(workdir, models, REP_NESTED_FIXED, "representative", "nested")


def rep_nested_probes(workdir: str) -> list[Request]:
    models = _fixtures(workdir)
    out = []
    for i, (fixture, text, golden, probe) in enumerate(REP_NESTED_PROBES):
        formula = _write(os.path.join(workdir, f"probe{i}.formula"), text + "\n")
        out.append(
            Request(
                f"{fixture}:{text}",
                _check(models[fixture], formula),
                "representative",
                models[fixture],
                formula,
                golden,
                probe=probe,
            )
        )
    return out


def _sat_instance(run, workdir, seed, n, clauses, satisfiable: bool):
    """Generate a pool of random CNFs and pick one: the first satisfiable
    one, or the unsatisfiable one of median clause-scan work."""
    found = []
    for j in range(SAT_POOL):
        sub = seed * 1000 + n * 20 + (satisfiable * 10) + j
        model, formula = _gen(
            run,
            workdir,
            f"sat{n}_{clauses}_{j}",
            ["sat", "--vars", str(n), "--clauses", str(clauses), "--seed", str(sub)],
        )
        models, work = referee.count_models(*referee.read_cnf(_read(formula)))
        if (models > 0) == satisfiable:
            found.append((work, j, sub, model, formula))
            if satisfiable:
                break
    if not found:
        raise RuntimeError(f"no {'satisfiable' if satisfiable else 'unsatisfiable'} CNF among {SAT_POOL}")
    found.sort()
    return found[len(found) // 2]


def conp_sat(seed: int, workdir: str, run) -> list[Request]:
    models = _fixtures(workdir)
    out = _fixed(workdir, models, CONP_FIXED, "conp", "conp")
    out.append(
        Request(
            "mutex:[E]!(e0 & e1) via counterexample",
            ["counterexample", *out[0].argv[1:]],
            "conp",
            out[0].model,
            out[0].formula,
            "violated",
            6,
        )
    )
    # the target is the negated CNF: it holds iff no assignment satisfies it;
    # `check` decides the unsatisfiable ones, `counterexample` decodes the rest
    cases = [(n, 5 * n, False, "check") for n in SAT_DENSE_VARS]
    cases += [(n, n, True, "counterexample") for n in SAT_SPARSE_VARS]
    for n, clauses, satisfiable, cmd in cases:
        _, _, sub, model, path = _sat_instance(run, workdir, seed, n, clauses, satisfiable)
        out.append(
            Request(
                f"sat n={n} m={clauses} seed={sub} via {cmd}",
                [cmd, "--model", model, "--formula", path],
                "conp",
                model,
                path,
                "violated" if satisfiable else "holds",
                refute_depth=2,
                cnf=True,
            )
        )
    return out


_RANDOM_MODS = ("A", "Ai", "B", "Bi", "Ei")


def _random_structure(rng: random.Random) -> tuple[str, list[list[int]], list[str]]:
    n = rng.randint(1, 4)
    names = [f"s{i}" for i in range(n)]
    props = [f"p{i}" for i in range(rng.randint(1, 2))]
    succ = []
    for _ in names:
        out = [j for j in range(n) if rng.random() < 0.35] or [rng.randrange(n)]
        succ.append(out)
    lines = ["props: " + " ".join(props), "states: " + " ".join(names), "init: s0"]
    for name in names:
        label = [p for p in props if rng.random() < 0.5]
        if label:
            lines.append(f"label {name}: " + " ".join(label))
    for i, name in enumerate(names):
        lines.append("edges: " + " ".join(f"{name}->{names[j]}" for j in succ[i]))
    return "\n".join(lines) + "\n", succ, props


def _random_formula(rng: random.Random, props: list[str]) -> tuple[str, int, set[str]]:
    """Random formula over A/Ai/B/Bi/Ei with at most three modalities and
    started-by nesting at most 2; returns (text, nesting, modalities)."""
    budget = [rng.randint(0, 3)]
    mods: set[str] = set()

    def go(depth: int, nest_left: int) -> tuple[str, int]:
        choices = ["leaf"]
        if depth > 0:
            choices += ["not", "and", "or"]
            if budget[0] > 0:
                choices += ["modal", "modal"]
        kind = rng.choice(choices)
        if kind == "leaf":
            r = rng.random()
            return ("T" if r < 0.1 else "F" if r < 0.2 else rng.choice(props)), 0
        if kind == "not":
            text, nest = go(depth - 1, nest_left)
            return f"!({text})", nest
        if kind in ("and", "or"):
            (a, na), (b, nb) = go(depth - 1, nest_left), go(depth - 1, nest_left)
            return f"({a} {'&' if kind == 'and' else '|'} {b})", max(na, nb)
        mod = rng.choice([m for m in _RANDOM_MODS if m != "B" or nest_left > 0])
        budget[0] -= 1
        mods.add(mod)
        text, nest = go(depth - 1, nest_left - (mod == "B"))
        bra = f"<{mod}>" if rng.random() < 0.5 else f"[{mod}]"
        return f"{bra}({text})", nest + (mod == "B")

    text, nest = go(3, 2)
    return text, nest, mods


def _tracks_up_to(successors: list[list[int]], length: int) -> int:
    """Number of tracks of 2..length states, from any state."""
    walks = [1] * len(successors)  # walks of l states from each state
    total = 0
    for _ in range(length - 1):
        walks = [sum(walks[t] for t in succ) for succ in successors]
        total += sum(walks)
    return total


def small_verify(seed: int, workdir: str, run) -> list[Request]:
    rng = random.Random(seed)
    models = _fixtures(workdir)
    out = []
    while len(out) < SMALL_INSTANCES:
        model_text, succ, props = _random_structure(rng)
        text, nest, mods = _random_formula(rng, props)
        # pure <B>/<A>/<Ai> shapes can land in the existential fragment,
        # which `check` refuses; keep formulas that some engine decides
        if not (mods <= {"A", "Ai"} or mods & {"Bi", "Ei"}):
            continue
        longest = referee.longest_pair_free(succ, nest, max_len=9, max_count=3000)
        if longest is None:
            continue  # the exact oracle depth would be out of reach
        extensions = len(re.findall(r"[<\[][BE]i[>\]]", text))
        if _tracks_up_to(succ, (longest + 1) * (1 + extensions)) > SMALL_MAX_TRACKS:
            continue
        i = len(out)
        model = _write(os.path.join(workdir, f"rand{i}.model"), model_text)
        formula = _write(os.path.join(workdir, f"rand{i}.formula"), text + "\n")
        depth = longest + 1
        out.append(
            Request(
                f"rand{i} states={len(succ)} nest={nest} depth={depth}",
                _check(model, formula, "--verify-with-oracle", "--depth", str(depth)),
                "auto+oracle",
                model,
                formula,
                refute_depth=depth,
            )
        )
    cases = [("sched", text, golden, 14) for text, golden in SCHED_ORACLE]
    cases += [(fixture, text, "holds", depth) for fixture, text, depth in ORACLE_FIXED]
    for i, (fixture, text, golden, depth) in enumerate(cases):
        formula = _write(os.path.join(workdir, f"oracle{i}.formula"), text + "\n")
        out.append(
            Request(
                f"{fixture}:{text} depth={depth}",
                ["oracle", "--model", models[fixture], "--formula", formula, "--depth", str(depth)],
                "oracle",
                models[fixture],
                formula,
                golden,
                depth,
            )
        )
    return out


WORKLOADS = {
    "rep-flat": rep_flat,
    "rep-nested": rep_nested,
    "conp-sat": conp_sat,
    "small-verify": small_verify,
}
