"""Command-line front end.

Exit codes: 0 the property holds (or the track satisfies the formula),
1 it is violated (a counterexample is printed as ``CE: <states>``),
2 usage, syntax, or fragment errors.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import warnings
from typing import Callable, NamedTuple

from . import automaton, checker, conp, oracle, reductions
from . import descriptor as ds
from . import formula as fm
from .checker import Verdict
from .errors import BoundWarning, HsmcError
from .kripke import KripkeStructure, parse_kripke, serialize_kripke
from .unravel import Direction, unravel

DEFAULT_MAX_TAU = 10**6

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2


def _load_model(path: str) -> KripkeStructure:
    with open(path, encoding="utf-8") as handle:
        return parse_kripke(handle.read())


def _load_formula(path: str) -> fm.Formula:
    with open(path, encoding="utf-8") as handle:
        return fm.parse_formula(handle.read())


class _Route(NamedTuple):
    """An engine: the fragment test it refuses outside, ``decide(structure,
    f, config, max_tau) -> (holds, counterexample or None)`` and, but for
    conp, ``decide_track(structure, f, track, config) -> holds``."""

    accepts: Callable[[fm.Formula], bool]
    decide: Callable
    decide_track: Callable | None


def _conp(structure: KripkeStructure, f: fm.Formula, config, max_tau) -> Verdict:
    found = conp.provide_counterex(structure, f)
    return Verdict(found is None, found and found[1])


def _oracle(structure: KripkeStructure, f: fm.Formula, config, max_tau) -> Verdict:
    violating = oracle.oracle_find_counterexample(structure, f, config)
    return Verdict(violating is None, violating)


# ``--engine auto`` takes the first row whose test accepts the formula: with
# ``--track``, of the rows with a per-track decider, so the oracle is the
# fallback; on the whole structure, of the rows before the oracle.  conp's
# test is its grammar minus the formulas over <A>/<Ai> alone, whose least
# fragment is AAbar: those go to the automaton.  The deciders look their
# engine up when called, so a patched engine is the one that runs
_ROUTES = {
    "conp": _Route(
        lambda f: fm.classify(f) in (fm.FragmentClass.PROP, fm.FragmentClass.FORALL_AABE),
        _conp,
        None,
    ),
    "automaton": _Route(
        automaton.in_fragment,
        lambda k, f, config, max_tau: automaton.mod_check(k, f),
        lambda k, f, track, config: automaton.check(k, f, track),
    ),
    "representative": _Route(
        checker.in_fragment,
        lambda k, f, config, max_tau: checker.mod_check(k, f, max_tau=max_tau),
        lambda k, f, track, config: checker.check(k, None, f, track),
    ),
    "oracle": _Route(
        lambda f: True,
        _oracle,
        lambda k, f, track, config: oracle.oracle_eval(k, track, f, config),
    ),
}


def _pick(f: fm.Formula, on_track: bool) -> str:
    """The engine ``--engine auto`` routes a normalized formula to."""
    for name, route in _ROUTES.items():
        if on_track and route.decide_track is None:
            continue
        if name == "oracle" and not on_track:
            break
        if route.accepts(f):
            return name
    raise HsmcError(
        f"no engine handles {fm.classify(f).value} formulas; rerun with --engine oracle"
    )


def _cmd_check(args: argparse.Namespace, out) -> int:
    if args.max_tau < 0:
        raise ValueError("--max-tau must be nonnegative")
    structure = _load_model(args.model)
    normalized = fm.normalize(_load_formula(args.formula))
    config = oracle.OracleConfig(depth_bound=args.depth)
    on_track = args.track is not None
    engine = _pick(normalized, on_track) if args.engine == "auto" else args.engine
    route = _ROUTES[engine]

    counterexample = None
    if on_track:
        track = structure.track(args.track)
        if route.decide_track is None:
            raise HsmcError(
                "per-track checking needs the automaton, representative or oracle engine"
            )
        holds = route.decide_track(structure, normalized, track, config)
    else:
        holds, counterexample = route.decide(structure, normalized, config, args.max_tau)
        if args.verify_with_oracle:
            if oracle.oracle_mod_check(structure, normalized, config) != holds:
                raise HsmcError("engine verdict disagrees with the oracle")

    note = f" (depth {args.depth})" if args.command == "oracle" else ""
    out.write(f"result: {'holds' if holds else 'violated'}{note}\n")
    if counterexample is not None:
        out.write(f"CE: {structure.track_str(counterexample)}\n")
        if args.command == "counterexample":
            out.write(f"formula: {fm.to_text(fm.to_exists_dual(normalized))}\n")
    return EXIT_HOLDS if holds else EXIT_VIOLATED


def _cmd_descriptors(args: argparse.Namespace, out) -> int:
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    structure = _load_model(args.model)
    track = structure.track(args.track)
    seq = ds.descriptor_sequence(track)
    spans = ds.clusters(seq)
    opens = {c.span[0]: c for c in spans}
    closes = {c.span[1] for c in spans}

    out.write(f"track: {structure.track_str(track)}\n")
    out.write("sequence:\n")
    for i, element in enumerate(seq):
        prefix = "[" if i in opens else ""
        suffix = "]" if i in closes else ""
        out.write(f"{i}: {prefix}{element.format(structure)}{suffix}\n")
    out.write("clusters:\n")
    for idx, cluster in enumerate(spans, start=1):
        members = ", ".join(
            d.format(structure)
            for d in sorted(cluster.members, key=lambda d: (d.internal, d.v_fin))
        )
        out.write(f"{idx}: {{{members}}} span {cluster.span[0]}..{cluster.span[1]}\n")
    depth = max(args.k, 1)
    out.write(f"configurations (s={depth}):\n")
    for idx, cluster in enumerate(spans, start=1):
        result = ds.scan(seq, cluster, depth)
        rendered = " ".join(
            ds.configuration_string(c) for c in result.configurations()
        )
        out.write(f"cluster {idx}: {rendered}\n")
    return EXIT_HOLDS


def _cmd_unravel(args: argparse.Namespace, out) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    structure = _load_model(args.model)
    direction = Direction.FORWARD if args.direction == "forw" else Direction.BACKWARD
    start = structure.state_index(args.state)
    tracks = unravel(structure, start, args.k, direction)
    for track in itertools.islice(tracks, args.limit):
        out.write(structure.track_str(track) + "\n")
    return EXIT_HOLDS


def _cmd_gen(args: argparse.Namespace, out) -> int:
    rng = random.Random(args.seed)
    if args.kind == "qbf":
        instance = reductions.random_qbf(rng, args.vars)
        structure, formula = reductions.qbf_to_kripke(instance)
        header = "# generated from the QBF:\n" + "".join(
            f"#   {line}\n" for line in str(instance).strip().splitlines()
        )
    else:
        instance = reductions.random_cnf(rng, args.vars, args.clauses)
        structure, formula = reductions.sat_to_kripke(instance)
        body = " ".join(" ".join(map(str, clause)) + " 0" for clause in instance.clauses)
        header = f"# generated from the CNF: p cnf {instance.num_vars} {len(instance.clauses)}\n#   {body}\n"
    model_path = args.out + ".model"
    formula_path = args.out + ".formula"
    with open(model_path, "w", encoding="utf-8") as handle:
        handle.write(serialize_kripke(structure))
    with open(formula_path, "w", encoding="utf-8") as handle:
        handle.write(header + fm.to_text(formula) + "\n")
    out.write(f"wrote {model_path}\n")
    out.write(f"wrote {formula_path}\n")
    return EXIT_HOLDS


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("--model", required=True)
    check.add_argument("--formula", required=True)
    check.add_argument(
        "--engine",
        choices=("auto", "automaton", "representative", "conp", "oracle"),
        default="auto",
    )
    check.add_argument("--track", help="check against this one track instead")
    check.add_argument("--depth", type=int, default=12, help="oracle depth bound")
    check.add_argument(
        "--max-tau",
        type=int,
        default=DEFAULT_MAX_TAU,
        help="tau ceiling of the representative engine at depth >= 1",
    )
    check.add_argument("--verify-with-oracle", action="store_true")
    check.set_defaults(run=_cmd_check)


# the arguments of ``check`` that ``counterexample`` and ``oracle`` leave out
_CHECK_DEFAULTS = dict(
    run=_cmd_check, depth=12, track=None, max_tau=DEFAULT_MAX_TAU, verify_with_oracle=False
)


def _counterexample_arguments(cex: argparse.ArgumentParser) -> None:
    cex.add_argument("--model", required=True)
    cex.add_argument("--formula", required=True)
    # ``check --engine conp`` that also prints the dual a violation satisfies
    cex.set_defaults(engine="conp", **_CHECK_DEFAULTS)


def _descriptors_arguments(desc: argparse.ArgumentParser) -> None:
    desc.add_argument("--model", required=True)
    desc.add_argument("--track", required=True)
    desc.add_argument("--k", type=int, default=1)
    desc.set_defaults(run=_cmd_descriptors)


def _unravel_arguments(unr: argparse.ArgumentParser) -> None:
    unr.add_argument("--model", required=True)
    unr.add_argument("--state", required=True)
    unr.add_argument("--k", type=int, required=True)
    unr.add_argument("--direction", choices=("forw", "backw"), default="forw")
    unr.add_argument("--limit", type=int, default=None)
    unr.set_defaults(run=_cmd_unravel)


def _oracle_arguments(orc: argparse.ArgumentParser) -> None:
    orc.add_argument("--model", required=True)
    orc.add_argument("--formula", required=True)
    orc.add_argument("--depth", type=int, default=12)
    orc.add_argument("--track", default=None)
    # ``check --engine oracle`` with the depth on the verdict line
    orc.set_defaults(engine="oracle", **_CHECK_DEFAULTS)


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_qbf = gen_sub.add_parser("qbf")
    gen_qbf.add_argument("--vars", type=int, required=True)
    gen_qbf.add_argument("--seed", type=int, default=0)
    gen_qbf.add_argument("--out", required=True, help="output path prefix")
    gen_qbf.set_defaults(run=_cmd_gen, kind="qbf")
    gen_sat = gen_sub.add_parser("sat")
    gen_sat.add_argument("--vars", type=int, required=True)
    gen_sat.add_argument("--clauses", type=int, required=True)
    gen_sat.add_argument("--seed", type=int, default=0)
    gen_sat.add_argument("--out", required=True, help="output path prefix")
    gen_sat.set_defaults(run=_cmd_gen, kind="sat")


# subcommand: (help line, builder of its arguments), in help order
_COMMANDS = {
    "check": ("decide whether the model satisfies a formula", _check_arguments),
    "counterexample": (
        "search for a violating initial track",
        _counterexample_arguments,
    ),
    "descriptors": (
        "dump the descriptor sequence of a track",
        _descriptors_arguments,
    ),
    "unravel": ("stream track representatives", _unravel_arguments),
    "oracle": ("brute-force check with a depth bound", _oracle_arguments),
    "gen": ("generate reduction instances", _gen_arguments),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with ``only``, it knows that one subcommand
    and none of the others, which is all a request naming it needs."""
    parser = argparse.ArgumentParser(
        prog="hsmc",
        description="Model checking of interval temporal logic fragments "
        "over finite Kripke structures.",
    )
    # with ``only``, the metavar still names every subcommand, so the usage
    # line an error prints is the full parser's; without it, argparse derives
    # the same text and keeps naming the argument "command" in its errors
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        if only is None or name == only:
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    # a request that names a subcommand builds only that one; a bare,
    # --help or unknown command gets the full parser and its usage
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(only)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_ERROR if exc.code else EXIT_HOLDS
    try:
        # only the oracle warns, when --depth is below its exactness threshold;
        # the CLI answers at the requested depth without the warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundWarning)
            return args.run(args, out)
    except (HsmcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
