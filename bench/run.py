"""hsmc benchmark: seeded request corpora sent through ``hsmc.cli.run``.

    python3 bench/run.py --workload rep-flat --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
checkout this file sits in, and the run fails (exit 2, no result line) when
it is not there.  The CLI is driven in-process through ``hsmc.cli.run``:
``python -m hsmc.cli`` would exit 0 without doing anything, because
``cli.py`` has no ``__main__`` guard.

One process, one thread, one workload.  A run sets the workload up
``SETUP_REPEATS`` times (import ``hsmc``, generate and write the seeded
instances), then sends the corpus request by request (a closed loop with
one client), pass after pass in a seeded order, until ``--seconds`` have
passed; the first pass always completes, and a short request repeats back
to back for up to ``REPEAT_S``.  Before each request the package's caches
are emptied, as in a new process.  Each request runs under a
``REQUEST_LIMIT_S`` wall-clock limit enforced by ``SIGALRM``.

With ``--trace 0`` the last line reports the end-to-end metrics.  Request
times are wall-clock times scaled by the machine's speed over the run (see
``Speed``); the line before the result gives them unscaled.

* ``setup_s``: median wall time of one set-up (not scaled).
* ``corpus_s``: the sum over the corpus of each request's median time, i.e.
  the time of one pass over the corpus.
* ``verdict_p50_ms``: the median over requests of the per-request median.
* ``verdict_tail_ms``: the per-request median that has exactly ten requests
  above it; the percentile and the request count are printed before it.
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run makes one untraced pass and one traced pass and
reports the per-layer split of the traced pass (see ``tracer.py``), the
tracing overhead (traced minus untraced pass time), and the share of
requests that failed, counting the guard probes of ``rep-nested``, which
run after the traced pass.  Spans are written to ``bench/out/``.

Every verdict is compared with a reference that does not come from the
engine being timed (``corpus.py``, ``referee.py``); every counterexample is
refuted with ``oracle_eval`` and every decoded SAT assignment is checked
against its CNF, outside the timed region.  A wrong verdict or an unrefuted
counterexample makes the run report ``"correct": false`` and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

import corpus  # noqa: E402  (this directory is on sys.path as the script's own)
import referee  # noqa: E402
import tracer as tracing  # noqa: E402

REQUEST_LIMIT_S = 20.0  # slowest decided request: about 7 s; stress cases: over 10 min
SETUP_REPEATS = 3
REFERENCE_LOOP_S = 0.005  # the reference loop's time at the reference speed
REPEAT_S, MAX_REPEATS = 0.2, 20  # back-to-back repetitions of a short request
TAIL_ABOVE = 10


class RequestTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that the CLI's own
    error handling does not swallow it."""


_armed = False


def _alarm(signum, frame):
    if _armed:
        raise RequestTimeout


@dataclass
class Sample:
    code: int | None  # None: the time limit hit first
    out: str
    err: str
    seconds: float


@dataclass
class Outcome:
    request: corpus.Request
    samples: list[Sample] = field(default_factory=list)
    verdict: str = "-"
    status: str = "ok"  # ok | wrong | timeout | error | refused
    note: str = ""

    def median_s(self) -> float:
        return statistics.median(s.seconds for s in self.samples)


def import_hsmc():
    """Import the package afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "hsmc" or m.startswith("hsmc.")]:
        del sys.modules[name]
    importlib.import_module("hsmc.cli")
    hsmc = sys.modules["hsmc"]
    if not os.path.abspath(hsmc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hsmc was imported from {hsmc.__file__}, not from {SRC}")
    return hsmc


def set_up(workload: str, seed: int, workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    hsmc = import_hsmc()
    return hsmc, corpus.WORKLOADS[workload](seed, workdir, hsmc.cli.run)


def _reference_loop() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[(i & 255, i)] = i * i % 7
    return time.perf_counter() - start


class Speed:
    """The machine's speed over a run, relative to the reference: timings
    are multiplied by ``REFERENCE_LOOP_S`` over the median time of a fixed
    dict-and-tuple loop, sampled (best of three) before a request when
    ``PERIOD`` seconds have passed since the last sample, and after every
    request longer than that.  The machine this was tuned on changed speed
    by up to 40% from one run to the next; the median over a run follows
    that drift, while single samples are too noisy to scale one request."""

    PERIOD = 0.25

    def __init__(self):
        self.at = float("-inf")
        self.loops: list[float] = []

    def _sample(self) -> None:
        self.loops.append(min(_reference_loop() for _ in range(3)))
        self.at = time.perf_counter()

    def run(self, run, request: corpus.Request) -> Sample:
        if time.perf_counter() - self.at > self.PERIOD:
            self._sample()
        sample = execute(run, request)
        if sample.seconds > self.PERIOD:
            self._sample()
        return sample

    def factor(self) -> float:
        return REFERENCE_LOOP_S / statistics.median(self.loops)


def fresh_caches() -> None:
    """Empty the package's ``functools`` caches, as a new ``hsmc`` process
    would have them.  Without this, a request's speed depends on which
    formulas earlier requests left as cache keys."""
    for name, module in list(sys.modules.items()):
        if name == "hsmc" or name.startswith("hsmc."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def settle() -> None:
    """Move everything set-up made out of the collector's reach, so that the
    collection before each request only walks what earlier requests left."""
    gc.collect()
    gc.freeze()


def execute(run, request: corpus.Request) -> Sample:
    global _armed
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    try:
        with contextlib.redirect_stderr(err):
            code = run(request.argv, out=out)
    except RequestTimeout:
        pass
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Sample(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def classify(outcome: Outcome) -> None:
    """Set verdict and status from the samples, against the reference."""
    req = outcome.request
    first = outcome.samples[0]
    if any(s.out != first.out or s.code != first.code for s in outcome.samples):
        outcome.status, outcome.note = "wrong", "output differs between runs"
        return
    if first.code is None:
        outcome.status = "timeout"
        return
    if first.code == 2:
        message = first.err.strip().splitlines()[-1] if first.err.strip() else ""
        if "disagrees with the oracle" in message:
            outcome.status = "wrong"
        elif "exceeds the ceiling" in message:
            outcome.status = "refused"
        else:
            outcome.status = "error"
        outcome.note = message
        return
    lines = first.out.splitlines()
    outcome.verdict = "holds" if first.code == 0 else "violated"
    if not lines or lines[0].split()[:2] != ["result:", outcome.verdict]:
        outcome.status, outcome.note = "wrong", f"exit {first.code} but output {lines[:1]}"
    elif req.expect is not None and outcome.verdict != req.expect:
        outcome.status, outcome.note = "wrong", f"expected {req.expect}"


def refute(hsmc, outcome: Outcome) -> None:
    """Check a reported counterexample: it starts at the initial state, the
    oracle finds the formula false on it, and for SAT instances the
    assignment it encodes satisfies the CNF."""
    if outcome.status != "ok" or outcome.verdict != "violated":
        return
    req = outcome.request
    ce = [line[4:] for line in outcome.samples[0].out.splitlines() if line.startswith("CE: ")]
    if len(ce) != 1:
        outcome.status, outcome.note = "wrong", "violated without one counterexample"
        return
    with open(req.model, encoding="utf-8") as handle:
        structure = hsmc.parse_kripke(handle.read())
    with open(req.formula, encoding="utf-8") as handle:
        formula_text = handle.read()
    try:
        track = structure.track(ce[0])
    except hsmc.HsmcError as exc:  # not a path of the structure
        outcome.status, outcome.note = "wrong", f"counterexample {ce[0]!r}: {exc}"
        return
    config = hsmc.OracleConfig(depth_bound=req.refute_depth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hsmc.BoundWarning)
        refuted = not hsmc.oracle_eval(structure, track, hsmc.parse_formula(formula_text), config)
    if track.fst != structure.initial or not refuted:
        outcome.status, outcome.note = "wrong", f"counterexample {ce[0]!r} not refuted"
    elif req.cnf:
        n_vars, clauses = referee.read_cnf(formula_text)
        if not referee.satisfies(clauses, referee.sat_assignment(ce[0], n_vars)):
            outcome.status, outcome.note = "wrong", "decoded assignment fails the CNF"


def judge_probe(outcome: Outcome) -> None:
    """A guard probe may fail the way it is expected to; a verdict it does
    reach must be the golden one."""
    classify(outcome)
    if outcome.status == outcome.request.probe:
        outcome.note = "expected"


def order(rng: random.Random, n: int) -> list[int]:
    indices = list(range(n))
    rng.shuffle(indices)
    return indices


def row(workload: str, outcome: Outcome) -> str:
    req = outcome.request
    ms = outcome.median_s() * 1000
    return (
        f"row\t{workload}\t{req.name}\t{req.route}\t{outcome.verdict}\t"
        f"{ms:.3f} ms\tn={len(outcome.samples)}\t{outcome.status}"
        + (f"\t{outcome.note}" if outcome.note else "")
    )


def timed(args, workdir: str) -> tuple[dict, list[Outcome]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hsmc, requests = set_up(args.workload, args.seed, workdir)
        setups.append(time.perf_counter() - start)
    outcomes = [Outcome(r) for r in requests]
    run = hsmc.cli.run
    settle()
    rng = random.Random(args.seed)
    speed = Speed()
    # short requests repeat back to back within a pass, so that they get
    # enough samples; repetitions take at most a quarter of the run
    repeat_s = min(REPEAT_S, args.seconds / (4 * len(outcomes)))
    deadline = time.perf_counter() + args.seconds
    first = True
    while first or time.perf_counter() < deadline:
        for i in order(rng, len(outcomes)):
            if not first and time.perf_counter() >= deadline:
                break
            spent, samples = 0.0, outcomes[i].samples
            for _ in range(MAX_REPEATS):
                fresh_caches()
                gc.collect()
                samples.append(speed.run(run, outcomes[i].request))
                spent += samples[-1].seconds
                if spent >= repeat_s or samples[-1].code is None:
                    break
        first = False
    for outcome in outcomes:
        classify(outcome)
        refute(hsmc, outcome)

    raw = sorted(o.median_s() for o in outcomes)
    factor = speed.factor()
    medians = [t * factor for t in raw]
    n = len(medians)
    tail_index = max(n - 1 - TAIL_ABOVE, 0)
    print(
        f"# {args.workload}: {n} requests, {sum(len(o.samples) for o in outcomes)} samples; "
        f"verdict_tail_ms is the p{100 * (tail_index + 1) / n:.1f} per-request median "
        f"({n - 1 - tail_index} requests above it)"
    )
    print(
        f"# unscaled wall time: corpus {sum(raw):.4f} s, p50 {statistics.median(raw) * 1000:.4f} ms, "
        f"tail {raw[tail_index] * 1000:.4f} ms; speed factor {factor:.4f} "
        f"from {len(speed.loops)} reference loops"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "corpus_s": (sum(medians), "s"),
        "verdict_p50_ms": (statistics.median(medians) * 1000, "ms"),
        "verdict_tail_ms": (medians[tail_index] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, outcomes


def traced(args, workdir: str) -> tuple[dict, list[Outcome]]:
    tracer = tracing.Tracer()
    os.makedirs(workdir)
    hsmc = import_hsmc()
    tracer.install(hsmc)
    tracer.begin("setup")
    requests = corpus.WORKLOADS[args.workload](args.seed, workdir, hsmc.cli.run)
    tracer.end()
    tracer.uninstall()
    outcomes = [Outcome(r) for r in requests]
    run = hsmc.cli.run
    settle()
    sequence = order(random.Random(args.seed), len(outcomes))

    untraced_s = 0.0
    for i in sequence:
        fresh_caches()
        gc.collect()
        untraced_s += execute(run, outcomes[i].request).seconds
    traced_s = 0.0
    tracer.install(hsmc)
    for i in sequence:
        fresh_caches()
        gc.collect()
        tracer.begin(f"r{i}")
        try:
            sample = execute(run, outcomes[i].request)
        finally:
            tracer.end()
        outcomes[i].samples.append(sample)
        traced_s += sample.seconds
    tracer.uninstall()
    for outcome in outcomes:
        classify(outcome)
        refute(hsmc, outcome)

    probes = []
    if args.workload == "rep-nested":
        for request in corpus.rep_nested_probes(workdir):
            probe = Outcome(request, [execute(run, request)])
            judge_probe(probe)
            refute(hsmc, probe)
            probes.append(probe)

    per_request = tracer.by_request()
    for i, outcome in enumerate(outcomes):
        stats = per_request[f"r{i}"]
        outcome.note = (
            f"{outcome.note} " if outcome.note else ""
        ) + (
            f"engines={'+'.join(sorted(stats['engines'])) or '-'} "
            f"initial_tracks={stats['initial']} distinct_elements={stats['elements']}"
        )
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    layer = tracer.metrics({f"r{i}" for i in range(len(outcomes))})
    layer["reductions.gen_s"] = tracer.metrics({"setup"})["reductions.gen_s"]
    everything = outcomes + probes
    failed = sum(o.status in ("timeout", "error", "refused") for o in everything)
    layer["trace.overhead_s"] = traced_s - untraced_s
    layer["failed_share"] = failed / len(everything)
    metrics = {}
    for name, value in layer.items():
        if name.endswith("_per_s"):
            unit = "1/s"
        elif name.endswith(("_s", ".s")):
            unit = "s"
        elif name in ("unravel.max_len_over_tau", "unravel.reps_per_element", "failed_share"):
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = (value, unit)
    return metrics, outcomes + probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hsmc", "__init__.py")):
        print(f"error: no hsmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(BENCH, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        metrics, outcomes = (traced if args.trace else timed)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for outcome in outcomes:
        print(row(args.workload, outcome))
    wrong = [o for o in outcomes if o.status == "wrong"]
    probes = [o for o in outcomes if o.request.probe is not None]
    # the guard probes fail by design; every other failure is a failed request
    failed = sum(
        len(o.samples) for o in outcomes
        if o.status in ("timeout", "error", "refused") and o.request.probe is None
    )
    failed += sum(1 for o in probes if o.status not in ("ok", o.request.probe))
    result = {
        "correct": not wrong,
        "attempted": sum(len(o.samples) for o in outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
