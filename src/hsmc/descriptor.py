"""Descriptor elements, descriptor sequences, clusters, indistinguishability,
the scan function, combinatorial length bounds, and reference descriptor trees.

A track's descriptor sequence summarizes each of its prefixes by the triple
(first state, internal-state set, last state).  Two occurrences of the same
triple can be "k-indistinguishable", which certifies that the corresponding
prefixes have equal depth-k descriptor trees and therefore satisfy exactly
the same formulas up to started-by nesting k.  That equivalence is what lets
the unravelling search contract long tracks to bounded representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .kripke import KripkeStructure, Track


@dataclass(frozen=True)
class DescriptorElement:
    """Triple (v_in, internal-state set, v_fin); the set is a bitmask over
    state indices."""

    v_in: int
    internal: int
    v_fin: int

    @property
    def is_type2(self) -> bool:
        """Type-2 elements have their final state among the internal ones;
        only these can occur more than once in a descriptor sequence."""
        return bool(self.internal >> self.v_fin & 1)

    @property
    def is_type1(self) -> bool:
        return not self.is_type2

    def format(self, structure: KripkeStructure) -> str:
        inner = ",".join(structure.state_name(i) for i in _bits(self.internal))
        return (
            f"({structure.state_name(self.v_in)},{{{inner}}},"
            f"{structure.state_name(self.v_fin)})"
        )


def _bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def descriptor_element(track: Track) -> DescriptorElement:
    mask = 0
    for s in track.states[1:-1]:
        mask |= 1 << s
    return DescriptorElement(track.fst, mask, track.lst)


class DescriptorSequence:
    """The descriptor elements of all prefixes of a track, in order.

    Position i holds the element of the prefix ending at track position i+1,
    so the sequence is one shorter than the track.  The object memoizes the
    k-indistinguishability relation between positions.
    """

    def __init__(self, elements: Sequence[DescriptorElement]):
        self.elements = tuple(elements)
        first: dict[DescriptorElement, int] = {}
        self.first_occurrence: list[int] = []
        self.prev_occurrence: list[int | None] = []
        last: dict[DescriptorElement, int] = {}
        for i, d in enumerate(self.elements):
            self.prev_occurrence.append(last.get(d))
            last[d] = i
            first.setdefault(d, i)
            self.first_occurrence.append(first[d])
        self._indist_memo: dict[tuple[int, int, int], bool] = {}

    @classmethod
    def from_track(cls, track: Track) -> "DescriptorSequence":
        elems = []
        mask = 0
        states = track.states
        for i in range(1, len(states)):
            elems.append(DescriptorElement(states[0], mask, states[i]))
            mask |= 1 << states[i]
        return cls(elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> DescriptorElement:
        return self.elements[i]

    def __iter__(self) -> Iterator[DescriptorElement]:
        return iter(self.elements)

    def delm(self) -> frozenset[DescriptorElement]:
        """The set of elements occurring in the sequence."""
        return frozenset(self.elements)

    def k_indistinguishable(self, i: int, j: int, k: int) -> bool:
        """The recursive definition, memoized.

        Positions i < j are k-indistinguishable when they carry the same
        element and (k=1) the element sets of the strict prefixes match, or
        (k>=2) every position in [i, j-1] is (k-1)-indistinguishable from
        some position before i.
        """
        if k < 1:
            raise ValueError("indistinguishability starts at k=1")
        if not 0 <= i < j < len(self.elements):
            raise ValueError(f"bad positions ({i},{j}) for length {len(self.elements)}")
        return self._indist(i, j, k)

    def _indist(self, i: int, j: int, k: int) -> bool:
        if self.elements[i] != self.elements[j]:
            return False
        key = (i, j, k)
        cached = self._indist_memo.get(key)
        if cached is not None:
            return cached
        if k == 1:
            result = all(self.first_occurrence[m] < i for m in range(i, j))
        else:
            result = True
            for m in range(i, j):
                d = self.elements[m]
                if not any(
                    self.elements[p] == d and self._indist(p, m, k - 1)
                    for p in range(i)
                ):
                    result = False
                    break
        self._indist_memo[key] = result
        return result

    def exact_level(self, i: int, j: int, cap: int | None = None) -> int:
        """Largest k with positions i < j k-indistinguishable (0 when not even
        1-indistinguishable), probed up to ``cap`` when given."""
        level = 0
        limit = cap if cap is not None else len(self.elements)
        while level < limit and self._indist(i, j, level + 1):
            level += 1
        return level

    def has_k_indistinguishable_pair(self, k: int) -> bool:
        """Whether any pair of positions is k-indistinguishable; by
        transitivity it is enough to look at consecutive occurrences."""
        return any(
            prev is not None and self._indist(prev, i, k)
            for i, prev in enumerate(self.prev_occurrence)
        )

    def has_duplicate_element(self) -> bool:
        return any(p is not None for p in self.prev_occurrence)


def descriptor_sequence(track: Track) -> DescriptorSequence:
    return DescriptorSequence.from_track(track)


def rt(d1: DescriptorElement, d2: DescriptorElement) -> bool:
    """The prefix ordering on descriptor elements: d1 precedes d2 when d1's
    internal states plus its final state are contained in d2's internal set.
    Both elements must share the entry state."""
    if d1.v_in != d2.v_in:
        raise ValueError("descriptor elements of different tracks are unrelated")
    want = d1.internal | (1 << d1.v_fin)
    return want & ~d2.internal == 0


@dataclass(frozen=True)
class Cluster:
    """Maximal mutually rt-symmetric set of Type-2 elements of a sequence,
    together with the contiguous index span of their occurrences."""

    members: frozenset[DescriptorElement]
    span: tuple[int, int]


def clusters(seq: DescriptorSequence) -> list[Cluster]:
    """Clusters of a descriptor sequence in left-to-right span order.

    Type-2 elements are mutually symmetric exactly when they share the same
    internal-state set, and the internal sets only grow along the sequence,
    so each cluster is one contiguous run of occurrences.
    """
    by_mask: dict[int, set[DescriptorElement]] = {}
    spans: dict[int, list[int]] = {}
    for i, d in enumerate(seq.elements):
        if d.is_type2:
            by_mask.setdefault(d.internal, set()).add(d)
            spans.setdefault(d.internal, [i, i])[1] = i
    out = []
    for mask, members in by_mask.items():
        lo, hi = spans[mask]
        for i in range(lo, hi + 1):
            if seq.elements[i] not in members:
                raise AssertionError("cluster occurrences are not contiguous")
        out.append(Cluster(frozenset(members), (lo, hi)))
    out.sort(key=lambda c: c.span)
    return out


@dataclass(frozen=True)
class ScanState:
    """The scan arrays at one position: queues[m] is the set carried by array
    m-2, so index 0 holds the never-seen elements and index m+2 the elements
    whose latest repetition was exactly m-indistinguishable."""

    queues: tuple[frozenset[DescriptorElement], ...]


@dataclass
class ScanStep:
    position: int
    state: ScanState
    configuration: tuple[int, ...]


@dataclass
class ScanResult:
    steps: list[ScanStep]
    case_counts: dict[str, int] = field(default_factory=dict)

    def configurations(self) -> list[tuple[int, ...]]:
        return [s.configuration for s in self.steps]


def scan(seq: DescriptorSequence, cluster: Cluster, s: int) -> ScanResult:
    """Scan the subsequence of a cluster, tracking indistinguishability up to
    level ``s`` with s+3 arrays.

    Case (a) fires on a first occurrence, (b)/(c) on a repetition that is not
    1-indistinguishable from its predecessor, (d)/(e) on one that is exactly
    t-indistinguishable (clamped at s).  Cases (c) and (e), where an element
    fails to climb one array per repetition, cannot occur as long as ``s`` is
    at least the deepest level present in the subsequence; the result counts
    how often each case fired so that can be asserted.
    """
    if s < 1:
        raise ValueError("scan needs s >= 1")
    u, v = cluster.span
    members = cluster.members
    buckets: dict[DescriptorElement, int] = {d: -2 for d in members}
    buckets[seq[u]] = -1
    counts = {c: 0 for c in "abcde"}
    steps = [_scan_step(u, buckets, s)]
    for i in range(u + 1, v + 1):
        d = seq[i]
        prev = seq.prev_occurrence[i]
        old = buckets[d]
        if prev is None or prev < u:
            case, z = "a", -1
        else:
            t = seq.exact_level(prev, i, cap=s)
            if t == 0:
                case = "b" if old == -1 else "c"
                z = 0
            else:
                case = "d" if old <= t - 1 else "e"
                z = t
        counts[case] += 1
        if case in ("a", "b", "d"):
            for e, b in buckets.items():
                if b > z:
                    buckets[e] = z
            buckets[d] = z
        else:  # (c)/(e): only d moves, everything else stays put
            buckets[d] = z
        steps.append(_scan_step(i, buckets, s))
    return ScanResult(steps, counts)


def _scan_step(pos: int, buckets: dict[DescriptorElement, int], s: int) -> ScanStep:
    queues: list[set[DescriptorElement]] = [set() for _ in range(s + 3)]
    for d, b in buckets.items():
        queues[b + 2].add(d)
    state = ScanState(tuple(frozenset(q) for q in queues))
    return ScanStep(pos, state, tuple(len(q) for q in queues))


def configuration_string(configuration: tuple[int, ...]) -> str:
    if all(c <= 9 for c in configuration):
        return "".join(str(c) for c in configuration)
    return "-".join(str(c) for c in configuration)


def epsilon(n: int, t: int) -> int:
    """Number of t-tuples of naturals summing to n (stars and bars), exact."""
    if n < 1 or t < 1:
        raise ValueError("epsilon is defined for n, t >= 1")
    return comb(n + t - 1, t - 1)


def tau(w: int, k: int) -> int:
    """Length bound for track representatives over a structure with w states
    at nesting depth k: past it, some pair of positions in the descriptor
    sequence must be k-indistinguishable."""
    if w < 1:
        raise ValueError("tau needs at least one state")
    return min(1 + (1 + w) ** (2 * k + 4) + w, 1 + (k + 3) ** (w * w + 1) + w)


class BkDescriptor:
    """Depth-k descriptor tree in hash-consed canonical form.

    Children are deduplicated up to isomorphism by construction: a node is
    identified by its label and the sorted set of its children's identities,
    so isomorphic trees are the same object and equality is cheap.
    """

    __slots__ = ("element", "children", "key", "tree_size")

    _table: dict[tuple[DescriptorElement, tuple[int, ...]], "BkDescriptor"] = {}

    def __init__(self, element, children, key, tree_size):
        self.element = element
        self.children = children
        self.key = key
        self.tree_size = tree_size

    @classmethod
    def make(
        cls, element: DescriptorElement, children: Sequence["BkDescriptor"]
    ) -> "BkDescriptor":
        unique = {c.key: c for c in children}
        ckeys = tuple(sorted(unique))
        probe = cls._table.get((element, ckeys))
        if probe is not None:
            return probe
        ordered = tuple(unique[k] for k in ckeys)
        node = cls(
            element, ordered, len(cls._table), 1 + sum(c.tree_size for c in ordered)
        )
        cls._table[(element, ckeys)] = node
        return node

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, BkDescriptor)
            and self.element == other.element
            and len(self.children) == len(other.children)
            and all(a == b for a, b in zip(self.children, other.children))
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def format(self, structure: KripkeStructure) -> str:
        label = self.element.format(structure)
        if not self.children:
            return label
        return label + "[" + " ".join(c.format(structure) for c in self.children) + "]"


def build_bk_descriptor(
    structure: KripkeStructure, track: Track, k: int, max_nodes: int = 1_000_000
) -> BkDescriptor:
    """Reference construction of the depth-k descriptor tree of a track.

    Tree sizes grow steeply with k, so this is meant for small k (cross
    validation, golden tests); the ``max_nodes`` guard refuses oversized
    builds.  The tree for a length-2 prefix is a leaf at any depth since such
    a prefix has no proper prefixes of its own.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    states = track.states
    # prefix_elements[i] is the element of the prefix ending at position i
    prefix_elements: list[DescriptorElement | None] = [None]
    mask = 0
    for i in range(1, len(states)):
        prefix_elements.append(DescriptorElement(states[0], mask, states[i]))
        mask |= 1 << states[i]

    memo: dict[tuple[int, int], BkDescriptor] = {}

    def rec(end: int, depth: int) -> BkDescriptor:
        key = (end, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        element = prefix_elements[end]
        if depth == 0 or end == 1:
            node = BkDescriptor.make(element, ())
        else:
            node = BkDescriptor.make(
                element, [rec(e, depth - 1) for e in range(1, end)]
            )
        if node.tree_size > max_nodes:
            raise ResourceLimitError(
                f"descriptor tree would exceed {max_nodes} nodes"
            )
        memo[key] = node
        return node

    return rec(len(states) - 1, k)
