import hashlib
import io
import os
import subprocess
import sys

import pytest

import hsmc
from hsmc import parse_formula, parse_kripke
from hsmc.cli import build_parser, run

from conftest import FIG4_TEXT, K2_TEXT, MUTEX_TEXT, SCHED_TEXT


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_check_trivial_holds(files):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "T\n")
    code, out = _run(["check", "--model", model, "--formula", formula])
    assert code == 0
    assert out == "result: holds\n"


def test_check_violation_prints_counterexample(files):
    model = files("m.txt", MUTEX_TEXT)
    formula = files("f.txt", "[E]!(e0 & e1)  # no joint grants\n")
    code, out = _run(["check", "--model", model, "--formula", formula])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "result: violated"
    assert lines[1].startswith("CE: w0")


def test_check_per_track(files):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "[B]F\n")
    code, _ = _run(
        ["check", "--model", model, "--formula", formula, "--track", "v0 v1"]
    )
    assert code == 0  # length-2 tracks have no proper prefixes
    code, _ = _run(
        ["check", "--model", model, "--formula", formula, "--track", "v0 v1 v0"]
    )
    assert code == 1


def test_check_routes_out_of_scope_to_error(files):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "<E>p & <B>q\n")
    code, _ = _run(["check", "--model", model, "--formula", formula])
    assert code == 2
    code, _ = _run(
        ["check", "--model", model, "--formula", formula, "--engine", "oracle"]
    )
    assert code in (0, 1)


def test_check_verify_with_oracle(files, monkeypatch, capsys):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "[A](p -> <A>(p | q))\n")
    code, out = _run(
        ["check", "--model", model, "--formula", formula, "--verify-with-oracle",
         "--depth", "8"]
    )
    assert code == 0
    assert out == "result: holds\n"

    violated = files("g.txt", "[A](p -> <A>q)\n")
    code, out = _run(
        ["check", "--model", model, "--formula", violated, "--verify-with-oracle",
         "--depth", "8"]
    )
    assert code == 1

    # with --track the verdict is compared with the oracle's on the track
    on_track = files("h.txt", "[A](p | q)\n")
    argv = ["check", "--model", model, "--formula", on_track, "--track", "v0 v1",
            "--verify-with-oracle"]
    assert _run(argv) == (1, "result: violated\n")
    oracle_eval = hsmc.oracle.oracle_eval
    monkeypatch.setattr(
        hsmc.oracle, "oracle_eval", lambda *args: not oracle_eval(*args)
    )
    assert _run(argv) == (2, "")
    assert "engine verdict disagrees with the oracle" in capsys.readouterr().err


def test_check_max_tau_guard(files, capsys):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "<B>T\n")
    # the ceiling bounds the representative engine; auto routes <B>T to the
    # automaton, which walks no representative
    code, _ = _run(
        ["check", "--model", model, "--formula", formula, "--max-tau", "10",
         "--engine", "representative"]
    )
    assert code == 2
    assert "exceeds the ceiling 10" in capsys.readouterr().err
    # the ceiling bounds stream walks only; depth 0 walks none
    flat = files("g.txt", "[A](p | q)\n")
    code, _ = _run(["check", "--model", model, "--formula", flat, "--max-tau", "10"])
    assert code == 1


# small fixtures on which an <Ei> over a started-by below <A> holds and
# fails: such a started-by is read on the tracks from or into an endpoint,
# which prepending a state does not change, so <Ei> over it stays on the
# automaton
CYCLE_TEXT = "states: a b\ninit: a\nlabel a: p0\nlabel b: p0\nedges: a->a a->b b->a\n"
CHAIN_TEXT = (
    "states: a b c\ninit: a\nlabel a: p0\nlabel b: p0 p1\n"
    "edges: a->a a->b b->c c->a c->b\n"
)

# each engine's structure decider, patched to refuse where another one routes
_DECIDERS = {
    "conp": "hsmc.conp.provide_counterex",
    "automaton": "hsmc.automaton.mod_check",
    "representative": "hsmc.checker.mod_check",
    "oracle": "hsmc.oracle.oracle_find_counterexample",
}


@pytest.mark.parametrize(
    "fixture, text, engine, expected, also, oracle_depth",
    [
        (K2_TEXT, "<B>p", "automaton", (1, "result: violated\nCE: v0 v0\n"), (), None),
        # universal, but over <A>/<Ai> alone: conp's row leaves it to the automaton
        (K2_TEXT, "[A](p | q)", "automaton", (1, "result: violated\nCE: v0 v0\n"), ("conp",), 8),
        (K2_TEXT, "[B]F", "conp", (1, "result: violated\nCE: v0 v0 v0\n"), (), 8),
        (FIG4_TEXT, "[B][B]<A>T", "automaton", (0, "result: holds\n"), (), None),
        (MUTEX_TEXT, "<B><A>e0 | [A]T", "automaton", (0, "result: holds\n"), (), None),
        (K2_TEXT, "[A]<Ei>[B]q", "representative", (1, "result: violated\nCE: v0 v0\n"), (), 8),
        (CYCLE_TEXT, "<Ei><A><B>p0", "automaton", (0, "result: holds\n"), (), 8),
        (CHAIN_TEXT, "<Ei><A><B>p0", "automaton", (1, "result: violated\nCE: a b\n"), (), 8),
        (SCHED_TEXT, "[Ei]<A>[B]p1", "automaton", (0, "result: holds\n"), (), 8),
        (
            MUTEX_TEXT,
            "[A](r0 -> [A](e0 | (!r0 & !r1 & !e0 & !e1)))",
            "automaton",
            (1, "result: violated\nCE: w0 w1\n"),
            ("automaton", "representative"),
            None,
        ),
    ],
    ids=[
        "started-by-diamond",
        "universal-meets-only",
        "universal-started-by",
        "fig4-started-by-probe",
        "mutex-started-by-probe",
        "ei-over-started-by",
        "ei-over-started-by-below-meets-holds",
        "ei-over-started-by-below-meets-violated",
        "sched-ei-over-started-by-below-meets",
        "mutex-depth-zero",
    ],
)
def test_check_routes_each_formula_to_one_engine(
    files, monkeypatch, fixture, text, engine, expected, also, oracle_depth
):
    # auto decides the formula on the expected engine with every other
    # engine's structure decider refusing; each engine in ``also`` prints
    # the same when asked by name, and the oracle agrees on the verdict
    def refuse(*args, **kwargs):
        raise AssertionError("routed to another engine")

    for name, target in _DECIDERS.items():
        if name != engine:
            monkeypatch.setattr(target, refuse)
    model = files("m.txt", fixture)
    formula = files("f.txt", text + "\n")
    argv = ["check", "--model", model, "--formula", formula]
    assert _run(argv) == expected, text
    monkeypatch.undo()
    for name in also:
        assert _run([*argv, "--engine", name]) == expected, (text, name)
    if oracle_depth is not None:
        structure = parse_kripke(fixture)
        config = hsmc.OracleConfig(oracle_depth)
        holds = hsmc.oracle_mod_check(structure, parse_formula(text), config)
        assert holds == (expected[0] == 0), text


def test_counterexample_command(files):
    model = files("m.txt", MUTEX_TEXT)
    formula = files("f.txt", "[E]!(e0 & e1)\n")
    code, out = _run(["counterexample", "--model", model, "--formula", formula])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "result: violated"
    assert lines[1].startswith("CE: w0")
    assert lines[2] == "formula: <E>(e0 & e1)"


def test_counterexample_command_holds(files):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "[A]T\n")
    code, out = _run(["counterexample", "--model", model, "--formula", formula])
    assert code == 0
    assert out == "result: holds\n"


STAR_DUMP = """\
track: v0 v0 v0 v1 v2 v1 v2 v3 v3 v2 v2
sequence:
0: (v0,{},v0)
1: [(v0,{v0},v0)]
2: (v0,{v0},v1)
3: (v0,{v0,v1},v2)
4: [(v0,{v0,v1,v2},v1)
5: (v0,{v0,v1,v2},v2)]
6: (v0,{v0,v1,v2},v3)
7: [(v0,{v0,v1,v2,v3},v3)
8: (v0,{v0,v1,v2,v3},v2)
9: (v0,{v0,v1,v2,v3},v2)]
clusters:
1: {(v0,{v0},v0)} span 1..1
2: {(v0,{v0,v1,v2},v1), (v0,{v0,v1,v2},v2)} span 4..5
3: {(v0,{v0,v1,v2,v3},v2), (v0,{v0,v1,v2,v3},v3)} span 7..9
configurations (s=1):
cluster 1: 0100
cluster 2: 1100 0200
cluster 3: 1100 0200 0110
"""


def test_descriptors_dump(files):
    model = files("m.txt", FIG4_TEXT)
    code, out = _run(
        [
            "descriptors",
            "--model",
            model,
            "--track",
            "v0 v0 v0 v1 v2 v1 v2 v3 v3 v2 v2",
            "--k",
            "1",
        ]
    )
    assert code == 0
    assert out == STAR_DUMP


def test_unravel_command(files):
    model = files("m.txt", K2_TEXT)
    code, out = _run(
        ["unravel", "--model", model, "--state", "v0", "--k", "0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v0 v0"
    assert all(len(line.split()) <= 6 for line in lines)
    code, out_limited = _run(
        ["unravel", "--model", model, "--state", "v0", "--k", "0", "--limit", "3"]
    )
    assert out_limited.splitlines() == lines[:3]
    code, out_none = _run(
        ["unravel", "--model", model, "--state", "v0", "--k", "0", "--limit", "0"]
    )
    assert (code, out_none) == (0, "")


def test_unravel_backward(files):
    model = files("m.txt", K2_TEXT)
    code, out = _run(
        ["unravel", "--model", model, "--state", "v0", "--k", "0",
         "--direction", "backw"]
    )
    assert code == 0
    assert all(line.split()[-1] == "v0" for line in out.splitlines())


def test_oracle_command(files):
    model = files("m.txt", SCHED_TEXT)
    formula = files("f.txt", "[E](<E>^10 T -> <E><Ai>p3)\n")
    code, out = _run(
        ["oracle", "--model", model, "--formula", formula, "--depth", "14"]
    )
    assert code == 1
    assert out.splitlines()[0] == "result: violated (depth 14)"
    assert out.splitlines()[1].startswith("CE: v0")


def test_gen_round_trips(files, tmp_path):
    prefix = str(tmp_path / "inst")
    code, out = _run(["gen", "qbf", "--vars", "2", "--seed", "7", "--out", prefix])
    assert code == 0
    structure = parse_kripke(open(prefix + ".model").read())
    formula = parse_formula(open(prefix + ".formula").read())
    assert structure.n_states == 11
    code, _ = _run(
        ["check", "--model", prefix + ".model", "--formula", prefix + ".formula"]
    )
    assert code in (0, 1)

    code, _ = _run(
        ["gen", "sat", "--vars", "3", "--clauses", "4", "--seed", "9", "--out", prefix]
    )
    assert code == 0
    structure = parse_kripke(open(prefix + ".model").read())
    assert structure.n_states == 7
    code, _ = _run(
        ["check", "--model", prefix + ".model", "--formula", prefix + ".formula"]
    )
    assert code in (0, 1)


_QBF_2_7_MODEL = """\
props: x2 x1 start x2_aux x1_aux
states: w0 w1 w_x2_t1 w_x2_t2 w_x2_f1 w_x2_f2 w_x1_t1 w_x1_t2 w_x1_f1 w_x1_f2 sink
init: w0
label w0: x2 x1 start
label w1: x2 x1 start
label w_x2_t1: x2 x1 x2_aux
label w_x2_t2: x2 x1 x2_aux
label w_x2_f1: x1 x2_aux
label w_x2_f2: x1 x2_aux
label w_x1_t1: x2 x1 x1_aux
label w_x1_t2: x2 x1 x1_aux
label w_x1_f1: x2 x1_aux
label w_x1_f2: x2 x1_aux
label sink: x2 x1
edges: w0->w1
edges: w1->w_x2_t1 w1->w_x2_f1
edges: w_x2_t1->w_x2_t2
edges: w_x2_t2->w_x1_t1 w_x2_t2->w_x1_f1
edges: w_x2_f1->w_x2_f2
edges: w_x2_f2->w_x1_t1 w_x2_f2->w_x1_f1
edges: w_x1_t1->w_x1_t2
edges: w_x1_t2->sink
edges: w_x1_f1->w_x1_f2
edges: w_x1_f2->sink
edges: sink->sink
"""


@pytest.mark.parametrize(
    "args, model_sha, formula_sha",
    [
        (
            "qbf --vars 8 --seed 3",
            "c02f9591174b5ff787372c8eadce5f13644d2171b81dee49eb9286f71dd00c34",
            "3b27ba574455e726437b5c2585627253dca8d0ad77d5cebef2b0205d8a7b05d7",
        ),
        (
            "sat --vars 12 --clauses 40 --seed 5",
            "9f82d2b264933cdcc6376611684c9de5ec0ff5fdee7f7e255f59394a5a4944f0",
            "966af851e30878241569307521765b0c6610fdc22978689f970dbc1e449bfb9d",
        ),
    ],
)
def test_gen_output_is_fixed_per_seed(tmp_path, args, model_sha, formula_sha):
    # the digests pin whole files of instances the size the benchmark uses
    prefix = str(tmp_path / "inst")
    assert _run(["gen", *args.split(), "--out", prefix])[0] == 0
    for suffix, want in ((".model", model_sha), (".formula", formula_sha)):
        with open(prefix + suffix, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == want, suffix


def test_gen_writes_labels_in_declaration_order(tmp_path):
    prefix = str(tmp_path / "inst")
    assert _run(["gen", "qbf", "--vars", "2", "--seed", "7", "--out", prefix])[0] == 0
    assert open(prefix + ".model").read() == _QBF_2_7_MODEL


def test_deterministic_output(files):
    model = files("m.txt", MUTEX_TEXT)
    formula = files("f.txt", "[E]!(e0 & e1)\n")
    first = _run(["check", "--model", model, "--formula", formula])
    second = _run(["check", "--model", model, "--formula", formula])
    assert first == second


def test_usage_errors(files):
    code, _ = _run(["check", "--model", "/nonexistent", "--formula", "/nonexistent"])
    assert code == 2
    code, _ = _run(["bogus"])
    assert code == 2
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "T\n")
    code, _ = _run(["check", "--model", model, "--formula", formula, "--jobs", "4"])
    assert code == 2


def test_module_entry_point(files):
    # ``python -m hsmc.cli`` runs the command line, not just the import
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "[A]q\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hsmc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hsmc.cli", "check", "--model", model, "--formula", formula],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "result: violated"


def test_model_syntax_error_exit_code(files):
    model = files("m.txt", "states: a\ninit: a\nedges: a->b\n")
    formula = files("f.txt", "T\n")
    code, _ = _run(["check", "--model", model, "--formula", formula])
    assert code == 2


def test_bad_numeric_arguments_exit_code(files):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "T\n")
    code, _ = _run(
        ["check", "--model", model, "--formula", formula, "--engine", "oracle",
         "--depth", "1"]
    )
    assert code == 2
    code, _ = _run(["unravel", "--model", model, "--state", "v0", "--k", "-1"])
    assert code == 2
    code, _ = _run(["unravel", "--model", model, "--state", "nope", "--k", "0"])
    assert code == 2
    code, out = _run(
        ["unravel", "--model", model, "--state", "v0", "--k", "0", "--limit", "-3"]
    )
    assert (code, out) == (2, "")
    code, out = _run(["descriptors", "--model", model, "--track", "v0 v1", "--k", "-3"])
    assert (code, out) == (2, "")
    prefix = model + ".cnf"
    code, out = _run(["gen", "sat", "--vars", "3", "--clauses", "-1", "--out", prefix])
    assert (code, out) == (2, "")
    assert not os.path.exists(prefix + ".model")


@pytest.mark.parametrize("text", ["T", "<B>p"])
def test_negative_max_tau_is_refused_up_front(files, capsys, text):
    # refused as --limit is, before any engine runs, whatever the route
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", text + "\n")
    code, out = _run(["check", "--model", model, "--formula", formula, "--max-tau", "-5"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --max-tau must be nonnegative\n"


_USAGE = "usage: hsmc [-h] {check,counterexample,descriptors,unravel,oracle,gen} ...\n"

_HELP = _USAGE + """
Model checking of interval temporal logic fragments over finite Kripke
structures.

positional arguments:
  {check,counterexample,descriptors,unravel,oracle,gen}
    check               decide whether the model satisfies a formula
    counterexample      search for a violating initial track
    descriptors         dump the descriptor sequence of a track
    unravel             stream track representatives
    oracle              brute-force check with a depth bound
    gen                 generate reduction instances

options:
  -h, --help            show this help message and exit
"""


def test_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    assert run(["--help"]) == 0
    assert capsys.readouterr().out == _HELP


def test_top_level_errors_print_the_full_usage(capsys, monkeypatch):
    # a request naming one subcommand builds only that subparser, but an
    # error the top-level parser reports still shows every subcommand
    monkeypatch.setenv("COLUMNS", "80")
    code = run(["check", "--model", "m", "--formula", "f", "--bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == _USAGE + "hsmc: error: unrecognized arguments: --bogus\n"
    assert err.startswith(build_parser().format_usage())
    assert build_parser("check").format_usage() == build_parser().format_usage()
    # the full parser still calls the argument "command" in its errors
    run(["bogus"])
    assert capsys.readouterr().err.startswith(
        _USAGE + "hsmc: error: argument command: invalid choice: 'bogus'"
    )


def test_subcommand_parsers_exit_codes(capsys):
    assert _run(["bogus"])[0] == 2
    assert _run(["gen"])[0] == 2
    assert _run([])[0] == 2
    assert run(["check", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: hsmc check ")


def test_run_reads_sys_argv(files, monkeypatch):
    model = files("m.txt", K2_TEXT)
    formula = files("f.txt", "[A]q\n")
    monkeypatch.setattr(sys, "argv", ["hsmc", "check", "--model", model, "--formula", formula])
    out = io.StringIO()
    assert run(None, out=out) == 1
    assert out.getvalue().splitlines()[0] == "result: violated"
