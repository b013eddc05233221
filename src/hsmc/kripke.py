"""Finite Kripke structures, their text format, and track arithmetic.

A structure is a finite labelled graph with a left-total transition relation
and a distinguished initial state.  Tracks (finite paths with at least two
states) are the unit of evaluation: a track is read as the interval spanned
by its first and last state, and a proposition holds on it iff it holds at
every state it visits (homogeneity).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingEdgeError, ModelError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Track:
    """A finite path of length >= 2, stored as state indices.

    Tracks are plain immutable data; structural equality is sequence
    equality.  Validity against a particular structure (consecutive pairs
    being edges) is checked where tracks are built, not here.
    """

    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.states) < 2:
            raise ValueError("a track needs at least two states")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[int]:
        return iter(self.states)

    def __getitem__(self, i: int) -> int:
        return self.states[i]

    @property
    def fst(self) -> int:
        return self.states[0]

    @property
    def lst(self) -> int:
        return self.states[-1]

    def subtrack(self, i: int, j: int) -> "Track":
        """The track formed by positions i..j inclusive; requires i < j."""
        if not (0 <= i < j <= len(self.states) - 1):
            raise ValueError(f"bad subtrack bounds ({i},{j}) for length {len(self.states)}")
        return Track(self.states[i : j + 1])

    def prefixes(self) -> Iterator["Track"]:
        """Proper prefixes of length >= 2, shortest first; none for length-2 tracks."""
        for end in range(1, len(self.states) - 1):
            yield Track(self.states[: end + 1])

    def suffixes(self) -> Iterator["Track"]:
        """Proper suffixes of length >= 2, longest first; none for length-2 tracks."""
        for start in range(1, len(self.states) - 1):
            yield Track(self.states[start:])


class KripkeStructure:
    """Immutable finite Kripke structure.

    States are addressed by their declaration index; this order also serves
    as the fixed state order used by the unravelling search.  The structure
    is safe to share across concurrent readers once constructed.
    """

    def __init__(
        self,
        states: Sequence[str],
        edges: Iterable[tuple[str, str]],
        initial: str,
        labels: Mapping[str, Sequence[str]] | None = None,
        propositions: Sequence[str] | None = None,
    ):
        labels = dict(labels or {})
        names = list(states)
        if not names:
            raise ModelError("a structure needs at least one state")
        seen: set[str] = set()
        for n in names:
            if not _IDENT_RE.match(n):
                raise ModelError(f"bad state name {n!r}")
            if n in seen:
                raise ModelError(f"duplicate state {n!r}")
            seen.add(n)
        self._names = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}

        if propositions is None:
            props: list[str] = []
            for n in names:
                for p in labels.get(n, ()):
                    if p not in props:
                        props.append(p)
        else:
            props = list(propositions)
            if len(set(props)) != len(props):
                raise ModelError("duplicate proposition in props declaration")
        for p in props:
            if not _IDENT_RE.match(p):
                raise ModelError(f"bad proposition name {p!r}")
        self._props = tuple(props)
        self._prop_index = {p: i for i, p in enumerate(props)}

        masks = []
        for n in self._names:
            mask = 0
            for p in labels.get(n, ()):
                if p not in self._prop_index:
                    raise ModelError(f"unknown proposition {p!r} in label of {n!r}")
                mask |= 1 << self._prop_index[p]
            masks.append(mask)
        for n in labels:
            if n not in self._index:
                raise ModelError(f"label for unknown state {n!r}")
        self._label_masks = tuple(masks)
        # state-set mask -> AND of its states' label masks, filled on demand
        self._joint_labels: dict[int, int] = {}

        succ: list[set[int]] = [set() for _ in names]
        pred: list[set[int]] = [set() for _ in names]
        for u, v in edges:
            if u not in self._index:
                raise ModelError(f"edge from unknown state {u!r}")
            if v not in self._index:
                raise ModelError(f"edge to unknown state {v!r}")
            succ[self._index[u]].add(self._index[v])
            pred[self._index[v]].add(self._index[u])
        for i, out in enumerate(succ):
            if not out:
                raise ModelError(
                    f"delta not left-total: state {self._names[i]!r} has no outgoing edge"
                )
        self._succ = tuple(tuple(sorted(s)) for s in succ)
        self._pred = tuple(tuple(sorted(s)) for s in pred)

        if initial not in self._index:
            raise ModelError(f"unknown initial state {initial!r}")
        self._initial = self._index[initial]

    __hash__ = object.__hash__  # identity hash; equality below is structural

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        return (
            self._names == other._names
            and self._props == other._props
            and self._label_masks == other._label_masks
            and self._succ == other._succ
            and self._initial == other._initial
        )

    def __repr__(self) -> str:
        return (
            f"KripkeStructure({len(self._names)} states, "
            f"{sum(len(s) for s in self._succ)} edges, init={self.initial_name})"
        )

    @property
    def states(self) -> tuple[str, ...]:
        return self._names

    @property
    def propositions(self) -> tuple[str, ...]:
        return self._props

    @property
    def n_states(self) -> int:
        return len(self._names)

    @property
    def initial(self) -> int:
        return self._initial

    @property
    def initial_name(self) -> str:
        return self._names[self._initial]

    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown state {name!r}") from None

    def state_name(self, index: int) -> str:
        return self._names[index]

    def successors(self, state: int) -> tuple[int, ...]:
        return self._succ[state]

    def predecessors(self, state: int) -> tuple[int, ...]:
        return self._pred[state]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._succ[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, out in enumerate(self._succ):
            for v in out:
                yield u, v

    def label_mask(self, state: int) -> int:
        return self._label_masks[state]

    def joint_label_mask(self, states: int) -> int:
        """The AND of the label masks of the states in a state-set mask
        (all bits set for the empty set), cached per mask."""
        joint = self._joint_labels.get(states)
        if joint is None:
            joint, rest = -1, states
            while rest:
                low = rest & -rest
                joint &= self._label_masks[low.bit_length() - 1]
                rest ^= low
            self._joint_labels[states] = joint
        return joint

    def label_set(self, state: int) -> frozenset[str]:
        return self.mask_to_props(self._label_masks[state])

    def mask_to_props(self, mask: int) -> frozenset[str]:
        return frozenset(p for i, p in enumerate(self._props) if mask & (1 << i))

    def prop_mask(self, name: str) -> int:
        try:
            return 1 << self._prop_index[name]
        except KeyError:
            raise ModelError(f"unknown proposition {name!r}") from None

    def track(self, walk: str | Sequence[str | int]) -> Track:
        """Build a validated track from space-separated names, or a sequence of
        names/indices.  Raises when a step is not an edge."""
        items: Sequence[str | int] = walk.split() if isinstance(walk, str) else walk
        indices = [self.state_index(x) if isinstance(x, str) else x for x in items]
        for i in indices:
            if not 0 <= i < len(self._names):
                raise ModelError(f"state index {i} out of range")
        t = Track(tuple(indices))
        for a, b in zip(t.states, t.states[1:]):
            if not self.has_edge(a, b):
                raise MissingEdgeError(
                    f"({self._names[a]},{self._names[b]}) is not an edge"
                )
        return t

    def track_str(self, track: Track) -> str:
        return " ".join(self._names[i] for i in track.states)


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the line-oriented model format.

    Directives: ``states:``, ``init:``, ``label <state>:``, ``edges:`` and an
    optional ``props:`` declaring the proposition alphabet.  ``#`` starts a
    comment.  Without ``props:`` the alphabet is the union of the label lines
    in order of first appearance.
    """
    props: list[str] | None = None
    states: list[str] | None = None
    init: str | None = None
    labels: dict[str, list[str]] = {}
    edges: list[tuple[str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("props:"):
            if props is not None:
                raise ModelError("duplicate props declaration", lineno)
            props = line[len("props:") :].split()
        elif line.startswith("states:"):
            if states is not None:
                raise ModelError("duplicate states declaration", lineno)
            states = line[len("states:") :].split()
            if not states:
                raise ModelError("empty states declaration", lineno)
        elif line.startswith("init:"):
            if init is not None:
                raise ModelError("duplicate init declaration", lineno)
            fields = line[len("init:") :].split()
            if len(fields) != 1:
                raise ModelError("init takes exactly one state", lineno)
            init = fields[0]
        elif line.startswith("label ") or line == "label":
            head, sep, rest = line[len("label") :].partition(":")
            if not sep:
                raise ModelError("label line needs a ':'", lineno)
            name = head.strip()
            if not name:
                raise ModelError("label line needs a state name", lineno)
            if name in labels:
                raise ModelError(f"duplicate label line for {name!r}", lineno)
            labels[name] = rest.split()
        elif line.startswith("edges:"):
            for item in line[len("edges:") :].split():
                u, sep, v = item.partition("->")
                if not sep or not u or not v:
                    raise ModelError(f"bad edge {item!r}", lineno)
                edges.append((u, v))
        else:
            raise ModelError(f"unrecognized directive {line.split()[0]!r}", lineno)

    if states is None:
        raise ModelError("missing states declaration")
    if init is None:
        raise ModelError("missing init declaration")
    return KripkeStructure(states, edges, init, labels, props)


def serialize_kripke(structure: KripkeStructure) -> str:
    """Render a structure back into the model format; reparsing the output
    yields an identical structure."""
    lines = []
    if structure.propositions:
        lines.append("props: " + " ".join(structure.propositions))
    lines.append("states: " + " ".join(structure.states))
    lines.append("init: " + structure.initial_name)
    props = structure.propositions
    for i, name in enumerate(structure.states):
        mask = structure.label_mask(i)
        label = [p for bit, p in enumerate(props) if mask >> bit & 1]
        if label:
            lines.append(f"label {name}: " + " ".join(label))
    for i, name in enumerate(structure.states):
        out = structure.successors(i)
        if out:
            lines.append(
                "edges: " + " ".join(f"{name}->{structure.state_name(j)}" for j in out)
            )
    return "\n".join(lines) + "\n"


def concat(structure: KripkeStructure, left: Track, right: Track) -> Track:
    """Concatenate two tracks; requires an edge from lst(left) to fst(right)."""
    if not structure.has_edge(left.lst, right.fst):
        raise MissingEdgeError(
            f"({structure.state_name(left.lst)},{structure.state_name(right.fst)})"
            " is not an edge"
        )
    return Track(left.states + right.states)


def track_label(structure: KripkeStructure, track: Track) -> frozenset[str]:
    """Propositions that hold on the track: the intersection of the state labels."""
    return structure.mask_to_props(track_label_mask(structure, track))


def track_label_mask(structure: KripkeStructure, track: Track) -> int:
    mask = -1
    for s in track.states:
        mask &= structure.label_mask(s)
    return mask
