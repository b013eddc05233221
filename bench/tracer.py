"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces the module attributes the program resolves at
call time (``hsmc.checker.unravel``, ``hsmc.cli.parse_kripke`` and so on)
with wrappers that record a span per call: name, start, end, parent span and
request id.  Streams (the unravelling and the oracle's track enumerators)
get one span per stream whose duration is the time spent producing items.
Calls to a leaf layer under one parent span are folded into a single span
carrying a call count, which keeps a mutex request's 146,938 descriptor
computations to one record.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

import referee

_now = time.perf_counter

# layers that never call another traced layer: their calls fold per parent
_LEAVES = {
    "descriptor.element",
    "unravel",
    "oracle.enum",
    "formula.parse",
    "formula.normalize",
    "kripke.parse",
    "conp.table",
}

_ORACLE_ENTRIES = ("oracle.eval", "oracle.mod_check", "oracle.find_counterexample")


class Span:
    __slots__ = ("name", "start", "end", "dur", "parent", "request", "calls", "items", "extra")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = self.end = start
        self.dur = 0.0
        self.parent = parent
        self.request = request
        self.calls = 0
        self.items = 0  # tracks yielded, table elements built
        self.extra = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self._folded: dict[tuple, Span] = {}
        self._streamed: set[int] = set()  # spans whose initial stream exists
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, request: str) -> None:
        self.request = request
        self.stack = [self._open("cli.run")]

    def end(self) -> None:
        while self.stack:
            self._close(self.stack.pop())
        self.request = None

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, _now(), parent, self.request)
        span.calls = 1
        self.spans.append(span)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = _now()
        span.dur = span.end - span.start

    def _leaf(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        key = (parent, name)
        span = self._folded.get(key)
        if span is None:
            span = self._folded[key] = Span(name, _now(), parent, self.request)
            self.spans.append(span)
        span.calls += 1
        return span

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def call(self, owner, attr: str, name: str, items=None) -> None:
        original = getattr(owner, attr)
        leaf = name in _LEAVES

        def traced(*args, **kwargs):
            if self.request is None:
                return original(*args, **kwargs)
            if leaf:
                span = self._leaf(name)
                start = _now()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = _now()
                    span.dur += span.end - start
            else:
                index = self._open(name)
                self.stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.stack.pop()
                    self._close(index)
                span = self.spans[index]
            if items is not None:
                span.items += items(result)
            return result

        self._patch(owner, attr, traced)

    def stream(self, owner, attr: str, name: str, initial_from: str | None = None) -> None:
        """Wrap a generator function.  The first stream a span named
        ``initial_from`` opens (the initial representatives, which
        ``mod_check`` requests before any other) gets its own span with
        per-stream statistics; later streams fold."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self.request is None:
                return original(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            if (
                parent is not None
                and parent not in self._streamed
                and self.spans[parent].name == initial_from
            ):
                self._streamed.add(parent)
                index = self._open(name)
                span = self.spans[index]
                structure, depth = args[0], args[2]
                span.extra = {
                    "elements": set(),
                    "longest": 0,
                    "tau": referee.tau(structure.n_states, depth),
                    "book": 0.0,  # time spent here on the statistics
                }
            else:
                span = self._leaf(name)
            return self._drive(span, original(*args, **kwargs))

        self._patch(owner, attr, traced)

    @staticmethod
    def _drive(span: Span, inner):
        extra = span.extra
        while True:
            start = _now()
            try:
                item = next(inner)
            except StopIteration:
                span.end = _now()
                span.dur += span.end - start
                return
            span.end = _now()
            span.dur += span.end - start
            span.items += 1
            if extra is not None:
                book = _now()
                states = item.states
                internal = 0
                for s in states[1:-1]:
                    internal |= 1 << s
                extra["elements"].add((states[0], internal, states[-1]))
                extra["longest"] = max(extra["longest"], len(states))
                extra["book"] += _now() - book
            yield item

    def install(self, hsmc) -> None:
        """Wrap the layer entry points of an imported ``hsmc`` package."""
        checker, conp, oracle = hsmc.checker, hsmc.conp, hsmc.oracle
        self.call(checker, "mod_check", "checker.mod_check")
        self.call(checker, "descriptor_element", "descriptor.element")
        self.stream(checker, "unravel", "unravel", initial_from="checker.mod_check")
        self.call(conp, "_Table", "conp.table", items=lambda table: len(table.parent))
        self.call(conp, "provide_counterex", "conp.provide_counterex")
        self.call(oracle, "oracle_eval", "oracle.eval")
        self.call(oracle, "oracle_mod_check", "oracle.mod_check")
        self.call(oracle, "oracle_find_counterexample", "oracle.find_counterexample")
        for enum in ("all_tracks", "_tracks_into", "_chains_from", "_chains_into"):
            self.stream(oracle, enum, "oracle.enum")
        self.call(hsmc.formula, "parse_formula", "formula.parse")
        self.call(hsmc.formula, "normalize", "formula.normalize")
        self.call(hsmc.cli, "parse_kripke", "kripke.parse")
        for gen in ("random_qbf", "qbf_to_kripke", "random_cnf", "sat_to_kripke"):
            self.call(hsmc.reductions, gen, "reductions.gen")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the part of it the span's children cover."""
        inner = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                inner[span.parent] += span.dur
                if span.extra is not None:
                    inner[span.parent] += span.extra["book"]
        return [span.dur - inner[i] for i, span in enumerate(self.spans)]

    def by_request(self) -> dict[str, dict]:
        """Per-request initial representatives, distinct elements and the
        engines that ran."""
        out: dict[str, dict] = defaultdict(lambda: {"initial": 0, "elements": 0, "engines": set()})
        engines = {
            "checker.mod_check": "representative",
            "conp.provide_counterex": "conp",
            "oracle.find_counterexample": "oracle",
            "oracle.mod_check": "oracle",
        }
        for span in self.spans:
            row = out[span.request]
            if span.name in engines:
                row["engines"].add(engines[span.name])
            if span.extra is not None:
                row["initial"] += span.items
                row["elements"] += len(span.extra["elements"])
        return out

    def metrics(self, requests: set[str]) -> dict[str, float]:
        """Per-layer totals over the spans of the given requests."""
        selfs = self.self_times()
        calls = defaultdict(int)
        items = defaultdict(int)
        dur = defaultdict(float)
        own = defaultdict(float)
        initial = distinct = 0
        ratio = 0.0
        for span, self_s in zip(self.spans, selfs):
            if span.request not in requests:
                continue
            name = span.name
            calls[name] += span.calls
            items[name] += span.items
            dur[name] += span.dur
            own[name] += self_s
            if span.extra is not None:
                initial += span.items
                distinct += len(span.extra["elements"])
                ratio = max(ratio, span.extra["longest"] / span.extra["tau"])

        def share(a, b):
            return a / b if b else 0.0

        oracle_s = sum(dur[n] for n in _ORACLE_ENTRIES)
        return {
            "checker.self_s": own["checker.mod_check"],
            "checker.reps_per_s": share(initial, dur["checker.mod_check"]),
            "unravel.calls": calls["unravel"],
            "unravel.tracks": items["unravel"],
            "unravel.initial_tracks": initial,
            "unravel.self_s": own["unravel"],
            "unravel.tracks_per_s": share(items["unravel"], own["unravel"]),
            "unravel.distinct_elements": distinct,
            "unravel.reps_per_element": share(initial, distinct),
            "unravel.max_len_over_tau": ratio,
            "descriptor.element_calls": calls["descriptor.element"],
            "descriptor.element_s": dur["descriptor.element"],
            "conp.table_builds": calls["conp.table"],
            "conp.table_elements": items["conp.table"],
            "conp.table_build_s": dur["conp.table"],
            "conp.search_s": own["conp.provide_counterex"],
            "oracle.calls": sum(calls[n] for n in _ORACLE_ENTRIES),
            "oracle.s": oracle_s,
            "oracle.tracks": items["oracle.enum"],
            "oracle.tracks_per_s": share(items["oracle.enum"], oracle_s),
            "cli.requests": calls["cli.run"],
            "cli.self_s": own["cli.run"],
            "kripke.parse_calls": calls["kripke.parse"],
            "kripke.parse_s": dur["kripke.parse"],
            "formula.parse_s": dur["formula.parse"],
            "formula.normalize_calls": calls["formula.normalize"],
            "formula.normalize_s": dur["formula.normalize"],
            "reductions.gen_s": dur["reductions.gen"],
        }

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "dur": span.dur,
                    "parent": span.parent,
                    "request": span.request,
                    "calls": span.calls,
                    "items": span.items,
                }
                handle.write(json.dumps(record) + "\n")
