"""Hierarchical Pushdown Transducer — Section 4.

The HPDT composes one BPDT per location step into a binary tree whose
*positions* encode predicate knowledge:

* ``bpdt(0,0)`` is the root template (Figure 12).
* For each ``bpdt(i-1, k)`` generated from step ``N_{i-1}``:
  its **left child** ``bpdt(i, 2k+1)`` starts from the parent's TRUE
  state (parent predicate known true) and its **right child**
  ``bpdt(i, 2k)`` starts from the parent's NA state (parent predicate
  still unknown); the right child exists only when the parent has an NA
  state.
* With ``k = (k_0 k_1 ... )₂`` (most significant bit first), the HPDT
  being anywhere inside ``bpdt(l,k)`` means the predicate of the
  ancestor at level ``i`` is known true iff ``k_i = 1``.
* ``bpdt(l, 2^l - 1)`` — the all-ones position — is the only BPDT at
  its layer where every ancestor predicate is known true, so it alone
  may send results directly to the output.
* ``upload`` moves a buffer's items to *the nearest ancestor that has
  the current BPDT in its right subtree* — i.e. the deepest ancestor
  whose predicate is still NA — which is exactly the lowest zero bit
  of ``k``.

Closure steps (``//``) additionally get a ``//`` self-transition on
their START state, and their begin arcs into lower layers are marked as
closure transitions (``=``) that accept the tag at any depth
(Section 4.2, last paragraphs).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.xpath.ast import Axis, Query
from repro.xpath.parser import parse_query
from repro.xsq.bpdt import Bpdt, step_interest

BpdtId = Tuple[int, int]


class Hpdt:
    """The compiled query: a binary tree of BPDTs plus the output plan."""

    def __init__(self, query: Union[str, Query]):
        self.query = parse_query(query) if isinstance(query, str) else query
        self.depth = len(self.query.steps)
        self.bpdts: Dict[BpdtId, Bpdt] = {}
        self.closure_levels = frozenset(
            i + 1 for i, step in enumerate(self.query.steps)
            if step.axis is Axis.DESCENDANT)
        # Memo slot for the fast path's lowered transition tables
        # (:func:`repro.xsq.fastpath.compile_fastplan`).  Compute-once
        # and derived purely from ``query``, so it is safe to carry on
        # instances shared through the HPDT compile cache.
        self._fastplan = None
        self._build()

    def _build(self) -> None:
        root = self.bpdts[(0, 0)] = Bpdt(None, (0, 0))
        # Only the previous level spawns children, so each level walks
        # its own frontier: linear in the number of BPDTs.
        frontier = [((0, 0), root)]
        for level in range(1, self.depth + 1):
            step = self.query.steps[level - 1]
            lowest = level == self.depth
            spawned = []
            for (_plevel, pk), parent in frontier:
                left_id = (level, 2 * pk + 1)
                left = Bpdt(step, left_id, is_output_layer=lowest)
                self.bpdts[left_id] = left
                spawned.append((left_id, left))
                if parent.has_na_state:
                    right_id = (level, 2 * pk)
                    right = Bpdt(step, right_id, is_output_layer=lowest)
                    self.bpdts[right_id] = right
                    spawned.append((right_id, right))
            frontier = spawned

    # -- tree navigation ---------------------------------------------------

    def parent_of(self, bpdt_id: BpdtId) -> Optional[BpdtId]:
        level, k = bpdt_id
        if level == 0:
            return None
        return (level - 1, k >> 1)

    def ancestors(self, bpdt_id: BpdtId) -> Iterator[BpdtId]:
        """Ancestor ids from parent up to the root BPDT."""
        current = self.parent_of(bpdt_id)
        while current is not None:
            yield current
            current = self.parent_of(current)

    def is_left_child(self, bpdt_id: BpdtId) -> bool:
        return bool(bpdt_id[1] & 1)

    def upload_target(self, bpdt_id: BpdtId) -> Optional[BpdtId]:
        """Nearest ancestor holding this BPDT in its *right* subtree.

        That ancestor's predicate is the deepest one still NA, so it is
        where undetermined items belong.  ``None`` means every ancestor
        predicate is known true — items flush to the output instead
        (``bpdt(l, 2^l - 1)``).

        >>> h = Hpdt("/pub[year>2000]/book[author]/name/text()")
        >>> h.upload_target((3, 4))   # (100)2: both predicates NA
        (2, 2)
        >>> h.upload_target((2, 2))   # book's predicate resolved
        (1, 1)
        >>> h.upload_target((3, 7)) is None   # all-ones: flush directly
        True
        """
        level, k = bpdt_id
        for bit in range(level):
            if not (k >> bit) & 1:
                return (level - bit - 1, k >> (bit + 1))
        return None

    def truth_bits(self, bpdt_id: BpdtId) -> Tuple[bool, ...]:
        """Which ancestor predicates are known true at this position.

        Index ``i`` of the result corresponds to the BPDT at level
        ``i`` (the paper's ``k_i``); see the module docstring.
        """
        level, k = bpdt_id
        return tuple(bool((k >> (level - 1 - i)) & 1) for i in range(level))

    def output_bpdt_id(self) -> BpdtId:
        """The all-true position at the lowest layer."""
        return (self.depth, (1 << self.depth) - 1)

    def id_for_statuses(self, statuses: Tuple[bool, ...]) -> BpdtId:
        """Position of the BPDT reached given ancestor truth values.

        ``statuses[i]`` is True when the level-``i`` predicate is known
        true.  Inverse of :meth:`truth_bits`.
        """
        k = 0
        for known_true in statuses:
            k = (k << 1) | (1 if known_true else 0)
        return (len(statuses), k)

    def tag_interest(self) -> Tuple[frozenset, bool]:
        """Tags whose events can affect this HPDT, plus a wildcard flag.

        The union of :func:`repro.xsq.bpdt.step_interest` over every
        location step.  An event whose tag is outside the returned set
        (when ``wildcard`` is False) cannot advance any BPDT, decide any
        predicate, or produce a result — the shared dispatch index uses
        this to route each stream event to only the machines that can
        react to it.

        >>> tags, wildcard = Hpdt("/pub[year>2000]/book/name/text()").tag_interest()
        >>> sorted(tags), wildcard
        (['book', 'name', 'pub', 'year'], False)
        """
        tags = set()
        wildcard = False
        for step in self.query.steps:
            step_tags, step_wild = step_interest(step)
            tags |= step_tags
            wildcard = wildcard or step_wild
        return frozenset(tags), wildcard

    # -- introspection -------------------------------------------------------

    @property
    def bpdt_count(self) -> int:
        return len(self.bpdts)

    @property
    def state_count(self) -> int:
        return sum(len(b.states) for b in self.bpdts.values())

    def layer(self, level: int) -> List[Bpdt]:
        """All BPDTs at one layer, highest k first (paper's right-to-left)."""
        return [b for (l, _), b in sorted(self.bpdts.items(), reverse=True)
                if l == level]

    def describe(self) -> str:
        lines = ["HPDT for query: %s" % (self.query.text or repr(self.query)),
                 "%d BPDTs, %d states, closure levels: %s"
                 % (self.bpdt_count, self.state_count,
                    sorted(self.closure_levels) or "none")]
        for bpdt_id in sorted(self.bpdts):
            bpdt = self.bpdts[bpdt_id]
            target = self.upload_target(bpdt_id)
            dest = ("output" if target is None
                    else "bpdt(%d,%d)" % target)
            lines.append(bpdt.describe())
            lines.append("  upload -> %s" % dest)
        return "\n".join(lines)

    def to_dot(self) -> str:
        """GraphViz rendering of the whole HPDT (one cluster per BPDT)."""
        lines = ["digraph hpdt {", '  rankdir="LR";']
        for (level, k), bpdt in sorted(self.bpdts.items()):
            prefix = "b%d_%d" % (level, k)
            lines.append('  subgraph "cluster_%s" {' % prefix)
            lines.append('    label="bpdt(%d,%d)";' % (level, k))
            for state in bpdt.states:
                lines.append('    %s_%s [label="%s\\n%s"];'
                             % (prefix, state.sid[1:], state.sid, state.role))
            for arc in bpdt.arcs:
                label = arc.label
                if arc.guard:
                    label += "\\n[%s]" % arc.guard
                if arc.actions:
                    label += "\\n{%s}" % ",".join(arc.actions)
                lines.append('    %s_%s -> %s_%s [label="%s"];'
                             % (prefix, arc.src.sid[1:], prefix,
                                arc.dst.sid[1:], label.replace('"', "'")))
            lines.append("  }")
        # Inter-BPDT edges: child START states hang off parent TRUE/NA.
        for bpdt_id, bpdt in sorted(self.bpdts.items()):
            parent_id = self.parent_of(bpdt_id)
            if parent_id is None:
                continue
            parent = self.bpdts[parent_id]
            anchor = (parent.true_state if self.is_left_child(bpdt_id)
                      else parent.na_state)
            lines.append('  b%d_%d_%s -> b%d_%d_%s [style=dashed];'
                         % (parent_id[0], parent_id[1], anchor.sid[1:],
                            bpdt_id[0], bpdt_id[1], bpdt.start.sid[1:]))
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return "<Hpdt %r: %d bpdts, %d states>" % (
            self.query.text, self.bpdt_count, self.state_count)
