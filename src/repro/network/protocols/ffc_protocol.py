"""The distributed fault-free-cycle protocol (Section 2.4), end to end.

The computation proceeds in three message-passing stages, mirroring the
paper's Steps 1.1–3 (a global barrier between stages plays the role of the
termination detection the paper leaves implicit):

1. **Necklace probe** (``n`` rounds) — every non-faulty processor passes a
   token around its necklace; processors in faulty necklaces drop out
   (:mod:`repro.network.protocols.necklace_probe`).
2. **Broadcast** (``K`` rounds, ``K`` = eccentricity of the root in ``B*``) —
   the distinguished node ``R`` floods a marker; every reached processor
   learns its level and its minimal first-round predecessor, defining the
   BFS tree ``T'`` (:mod:`repro.network.protocols.broadcast`).
3. **Necklace coordination** (``2n + 1`` rounds) — levels and parents are
   circulated around each necklace (``n`` rounds) so each necklace agrees on
   its earliest member, tree label ``w`` and parent necklace; each child
   necklace's suffix-``w`` member then announces itself along its out-links
   (1 round); the announcements are circulated around each receiving necklace
   (``n`` rounds); after which every processor locally knows the modified
   tree ``D`` edges incident to its necklace and computes its successor in
   the fault-free cycle.

Total: ``K + 3n + 1`` communication steps — the ``O(K + n)`` of the paper.
The assembled cycle is verified in the tests to be *identical* to the output
of the centralized algorithm in :mod:`repro.core.ffc`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ...exceptions import ProtocolError
from ...words.alphabet import Word
from ...words.rotation import distinct_rotations, min_rotation
from ..message import Message
from ..node import NodeContext, NodeProgram
from ..simulator import SynchronousDeBruijnNetwork
from .broadcast import run_broadcast
from .necklace_probe import run_necklace_probe

__all__ = ["DistributedFFCResult", "NecklaceCoordinationProgram", "run_distributed_ffc"]


@dataclass(frozen=True)
class DistributedFFCResult:
    """Outcome of the distributed FFC protocol.

    Attributes
    ----------
    cycle:
        The fault-free cycle assembled from the per-node successor pointers.
    successors:
        ``{node: successor}`` as computed locally by each processor.
    probe_rounds, broadcast_steps, coordination_rounds:
        Logical communication steps of the three stages (``n``, ``K`` and
        ``2n + 1`` respectively).
    messages_delivered:
        Total messages delivered across all stages.
    """

    cycle: tuple[Word, ...]
    successors: dict[Word, Word]
    probe_rounds: int
    broadcast_steps: int
    coordination_rounds: int
    messages_delivered: int

    @property
    def total_steps(self) -> int:
        """Total communication steps, ``K + 3n + 1`` in the worst case."""
        return self.probe_rounds + self.broadcast_steps + self.coordination_rounds


class NecklaceCoordinationProgram(NodeProgram):
    """Stage 3: necklace-level agreement and successor computation.

    Each participating node starts knowing its own broadcast ``level`` and
    ``parent``; the program circulates that information around the necklace,
    performs the one-round announcement of star membership, circulates the
    received announcements, and finally stores the node's successor in the
    fault-free cycle in its state.
    """

    def __init__(self, node: Word, info: dict[Word, dict]) -> None:
        self.info = info  # injected per-node {level, parent} from stage 2

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _rotation_successor(node: Word) -> Word:
        return node[1:] + node[:1]

    def on_start(self, ctx: NodeContext) -> None:
        own = self.info[ctx.node]
        ctx.state.update(
            {
                "round": 0,
                "level": own["level"],
                "parent": own["parent"],
                "necklace_info": {ctx.node: (own["level"], own["parent"])},
                "announcements": [],
                "successor": None,
            }
        )
        # launch the level/parent token around the necklace
        ctx.send(
            self._rotation_successor(ctx.node),
            "levels",
            ((ctx.node, own["level"], own["parent"]),),
        )

    # -- per-round behaviour ---------------------------------------------------------
    def on_round(self, ctx: NodeContext, messages: Sequence[Message]) -> None:
        ctx.state["round"] += 1
        r = ctx.state["round"]
        n = ctx.n

        level_tokens: list[tuple[Word, int | None, Word | None]] = []
        announce_tokens: list[tuple[Word, Word, Word]] = []
        for msg in messages:
            if msg.tag == "levels":
                level_tokens.extend(msg.payload)
            elif msg.tag == "announce":
                announce_tokens.extend(msg.payload)
            elif msg.tag == "announce_circ":
                announce_tokens.extend(msg.payload)

        fresh_levels = []
        for node, level, parent in level_tokens:
            if node not in ctx.state["necklace_info"]:
                ctx.state["necklace_info"][node] = (level, parent)
                fresh_levels.append((node, level, parent))
        for ann in announce_tokens:
            if ann not in ctx.state["announcements"]:
                ctx.state["announcements"].append(ann)

        if r < n:
            # keep circulating level/parent tokens around the necklace
            if fresh_levels:
                ctx.send(self._rotation_successor(ctx.node), "levels", tuple(fresh_levels))
            return

        if r == n:
            # the necklace now agrees on its earliest member and tree label;
            # the suffix-w member of a *child* necklace announces the star.
            label = self._tree_label(ctx)
            if label is not None and ctx.node[1:] == label:
                rep = min_rotation(ctx.node)
                parent_node = self._chosen_parent(ctx)
                ctx.send_to_all_successors("announce", ((label, rep, parent_node),))
            return

        if r < 2 * n + 1:
            # circulate announcements around the necklace so the suffix-w
            # members (which decide the outgoing D-edges) all learn them
            if announce_tokens:
                ctx.send(
                    self._rotation_successor(ctx.node),
                    "announce_circ",
                    tuple(announce_tokens),
                )
            if r == 2 * n:
                ctx.state["successor"] = self._compute_successor(ctx)
                ctx.halt()
            return

        ctx.halt()  # pragma: no cover - defensive

    # -- local decisions (all computed from necklace-circulated data) ------------------
    def _chosen_member(self, ctx: NodeContext) -> Word | None:
        """The earliest-received member of this necklace (ties: minimal node)."""
        infos = ctx.state["necklace_info"]
        reached = {node: lvl for node, (lvl, _) in infos.items() if lvl is not None}
        if len(reached) != len(infos) or not reached:
            return None  # necklace not (fully) reached by the broadcast
        return min(reached, key=lambda node: (reached[node], node))

    def _tree_label(self, ctx: NodeContext) -> Word | None:
        """The label ``w`` of this necklace's tree edge (None for the root necklace)."""
        chosen = self._chosen_member(ctx)
        if chosen is None:
            return None
        level, parent = ctx.state["necklace_info"][chosen]
        if parent is None:
            return None  # the root necklace has no tree edge
        return chosen[:-1]

    def _chosen_parent(self, ctx: NodeContext) -> Word | None:
        chosen = self._chosen_member(ctx)
        if chosen is None:
            return None
        return ctx.state["necklace_info"][chosen][1]

    def _compute_successor(self, ctx: NodeContext) -> Word | None:
        """Step 3 of the FFC algorithm, evaluated locally at this node."""
        infos = ctx.state["necklace_info"]
        if any(lvl is None for lvl, _ in infos.values()):
            return None  # outside B*: does not join the cycle
        w = ctx.node[1:]
        my_rep = min_rotation(ctx.node)
        # Reconstruct the star T_w from the label-w announcements.  The
        # height-one property of T_w guarantees all such announcements refer
        # to a single star (one common parent), so the star is simply the set
        # of announced children plus the (unique) announced parent necklace.
        star: set[Word] = set()
        relevant = [a for a in ctx.state["announcements"] if a[0] == w]
        if relevant:
            parent_reps = {min_rotation(pn) for _, _, pn in relevant if pn is not None}
            child_reps = {child for _, child, _ in relevant}
            if my_rep in parent_reps or my_rep in child_reps:
                star = child_reps | parent_reps
        if star and my_rep in star:
            ordered = sorted(star)
            target_rep = ordered[(ordered.index(my_rep) + 1) % len(ordered)]
            if target_rep != my_rep:
                entry = self._entry_node(target_rep, w)
                if entry is not None:
                    return entry
        return self._rotation_successor(ctx.node)

    @staticmethod
    def _entry_node(target_rep: Word, w: Word) -> Word | None:
        """The node ``w beta`` of the target necklace (computed from its representative)."""
        for member in distinct_rotations(target_rep):
            if member[1:] == w:  # member is beta w
                return member[1:] + member[:1]
        return None

    def result(self, ctx: NodeContext) -> dict:
        return {"successor": ctx.state["successor"]}


def run_distributed_ffc(
    d: int,
    n: int,
    faults: Iterable[Sequence[int]] = (),
    root_hint: Sequence[int] | None = None,
) -> DistributedFFCResult:
    """Execute the three-stage distributed FFC protocol and assemble the cycle.

    The root is chosen exactly as in the centralized algorithm (the canonical
    representative of a surviving necklace, honouring ``root_hint``), so the
    two implementations are directly comparable.
    """
    from ...core.necklace_graph import build_bstar

    fault_words = [tuple(int(x) for x in f) for f in faults]
    network = SynchronousDeBruijnNetwork(d, n, faulty_nodes=fault_words)

    # Stage 1: necklace probe among all non-faulty processors.
    probe_result, healthy = run_necklace_probe(network)

    # The distinguished root: same rule as the centralized algorithm.
    bstar = build_bstar(d, n, fault_words, root_hint=root_hint)
    root = bstar.root
    if root not in healthy:  # pragma: no cover - the root's necklace is healthy by construction
        raise ProtocolError("chosen root is not in a healthy necklace")

    # Stage 2: broadcast from the root among the healthy processors.
    bc_result, bc_info = run_broadcast(network, root, healthy)
    reached = {node for node, info in bc_info.items() if info["level"] is not None}
    broadcast_steps = max(bc_info[node]["level"] for node in reached)

    # Stage 3: necklace coordination among the healthy processors.
    coord_result = network.run(
        lambda node: NecklaceCoordinationProgram(node, bc_info),
        participants=healthy,
        max_rounds=2 * n + 5,
    )
    successors = {
        node: info["successor"]
        for node, info in coord_result.node_results.items()
        if info["successor"] is not None
    }

    # Assemble the cycle by following successor pointers from the root.
    cycle = [root]
    current = successors.get(root)
    guard = 0
    while current is not None and current != root:
        cycle.append(current)
        current = successors.get(current)
        guard += 1
        if guard > len(successors) + 1:
            raise ProtocolError("distributed successor pointers do not close into a cycle")
    if current is None:
        raise ProtocolError("distributed successor pointers are incomplete")

    messages = (
        probe_result.messages_delivered
        + bc_result.messages_delivered
        + coord_result.messages_delivered
    )
    return DistributedFFCResult(
        cycle=tuple(cycle),
        successors=successors,
        probe_rounds=n,
        broadcast_steps=broadcast_steps,
        coordination_rounds=coord_result.rounds,
        messages_delivered=messages,
    )
