"""Procedure ESST — exploration with a semi-stationary token (§2).

A single agent explores an unknown graph with the help of a unique *token*
that sits on one extended edge ``u – v`` (the edge plus its endpoints) and
never leaves it.  Terminating exploration of anonymous graphs of unknown size
is impossible without such help; in the paper the token role is played by an
agent in state *ghost* (Algorithm SGL), and the exploring agent is an agent in
state *explorer*.

The procedure works in phases ``i = 3, 6, 9, ...``:

1. the agent follows the trunk ``R(2i, v)`` from its current node ``v``,
   checking that the application is *clean* (every visited node has degree at
   most ``i - 1``) and that the token is seen at least once; otherwise the
   phase is aborted and phase ``i + 3`` starts;
2. it backtracks to the first trunk node and then, at every trunk node
   ``u_j``, runs ``R(i, u_j)`` until the token is sighted, records the *code*
   (the sequence of ports from ``u_j`` to the sighting; empty if the token is
   at ``u_j``), backtracks to ``u_j`` and moves on to ``u_{j+1}``;
3. the phase is aborted as soon as an ``R(i, u_j)`` ends without a sighting or
   the number of *distinct* codes recorded in the phase reaches ``i / 3``;
4. if the whole phase completes, the procedure stops: by Theorem 2.1 every
   edge of the graph has been traversed and the final phase index ``t``
   satisfies ``n < t``, so ``t`` is an upper bound on the size of the graph.

Two ways of running the procedure are provided:

* :func:`esst_procedure` — the agent-program generator, used by Algorithm SGL
  inside the full asynchronous engine (token sightings are reported through a
  :class:`TokenTracker` by the agent's controller);
* :func:`run_esst` — a fast stand-alone driver against a known graph with a
  stationary token, used by the Theorem-2.1 experiments (E4) and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..exceptions import ExplorationError
from ..graphs.port_graph import EdgeKey, PortLabeledGraph, edge_key
from ..sim.actions import Move, Observation
from ..sim.position import Position
from .cost_model import CostModel
from .uxs import next_port
from .walker import _MOVES, _NO_ENTRY_PORT, Tape, WalkProgram, backtrack, step

__all__ = [
    "TokenTracker",
    "esst_procedure",
    "ESSTResult",
    "run_esst",
    "run_esst_reference",
]


class TokenTracker:
    """Communication channel reporting token sightings to the ESST program.

    Whoever drives the program (the stand-alone driver, or the agent's
    controller inside the engine) calls :meth:`record_sighting` every time the
    exploring agent's point coincides with the token; the program reads
    :attr:`sightings` and :attr:`last_was_at_node` to decide when the token
    has been seen and whether it was found exactly at a node.
    """

    __slots__ = ("sightings", "last_was_at_node")

    def __init__(self) -> None:
        #: Total number of sightings so far.
        self.sightings = 0
        #: Whether the most recent sighting happened at a node (as opposed to
        #: strictly inside an edge).
        self.last_was_at_node = False

    def record_sighting(self, at_node: bool) -> None:
        """Record one coincidence of the agent with the token."""
        self.sightings += 1
        self.last_was_at_node = at_node


@dataclass
class _PhaseOutcome:
    """Result of a single ESST phase."""

    observation: Observation
    success: bool
    codes: Tuple[Tuple[int, ...], ...]


def _phase(
    index: int,
    model: CostModel,
    tape: Tape,
    obs: Observation,
    tracker: TokenTracker,
):
    """Run one phase of Procedure ESST; generator returning a :class:`_PhaseOutcome`."""
    # The body of :func:`step` is inlined at every move site below (same
    # tape protocol, same error message): ESST is the explorer's inner loop,
    # and a sub-generator per move would dominate the cost of the move.
    moves = _MOVES
    entry_ports = tape.entry_ports
    # ------------------------------------------------------------------
    # 1. the trunk R(2i, v)
    # ------------------------------------------------------------------
    sightings_at_phase_start = tracker.sightings
    trunk_mark = tape.mark()
    trunk_exit_ports: List[int] = []
    clean = obs.degree <= index - 1
    # A fresh application of R(2i, v) is a function of v alone: its first
    # step uses port base 0 rather than the port by which the agent arrived.
    entry: Optional[int] = None
    for increment in model.uxs_terms(2 * index):
        port = next_port(entry, increment, obs.degree)
        trunk_exit_ports.append(port)
        obs = yield moves[port] if 0 <= port < 64 else Move(port)
        entry = obs.entry_port
        if entry is None:
            raise ExplorationError(_NO_ENTRY_PORT)
        entry_ports.append(entry)
        if obs.degree > index - 1:
            clean = False
    if not clean or tracker.sightings == sightings_at_phase_start:
        return _PhaseOutcome(obs, False, ())

    # ------------------------------------------------------------------
    # 2. backtrack to the first trunk node u1, tracking the final arrival
    # ------------------------------------------------------------------
    trunk_entry_ports = list(tape.slice_since(trunk_mark))
    arrived_on_token_node = False
    for port in reversed(trunk_entry_ports):
        before = tracker.sightings
        obs = yield moves[port] if 0 <= port < 64 else Move(port)
        entry = obs.entry_port
        if entry is None:
            raise ExplorationError(_NO_ENTRY_PORT)
        entry_ports.append(entry)
        sighted = tracker.sightings > before
        arrived_on_token_node = sighted and tracker.last_was_at_node

    # ------------------------------------------------------------------
    # 3. run R(i, u_j) from every trunk node u_j
    # ------------------------------------------------------------------
    codes: Set[Tuple[int, ...]] = set()
    max_codes = index // 3
    trunk_position = 0  # we are at u_1; trunk nodes are u_1 .. u_{P(2i)+1}
    total_trunk_nodes = len(trunk_exit_ports) + 1
    while True:
        # -- run R(index, u_j), interrupted at the first token sighting.
        code: Optional[Tuple[int, ...]] = None
        if arrived_on_token_node:
            code = ()
        else:
            sub_mark = tape.mark()
            ports_taken: List[int] = []
            entry = None  # fresh application of R(i, u_j): port base 0
            base_sightings = tracker.sightings
            for increment in model.uxs_terms(index):
                port = next_port(entry, increment, obs.degree)
                ports_taken.append(port)
                obs = yield moves[port] if 0 <= port < 64 else Move(port)
                entry = obs.entry_port
                if entry is None:
                    raise ExplorationError(_NO_ENTRY_PORT)
                entry_ports.append(entry)
                if tracker.sightings > base_sightings:
                    code = tuple(ports_taken)
                    break
            obs = yield from backtrack(tape, sub_mark, obs)
        if code is None:
            return _PhaseOutcome(obs, False, tuple(sorted(codes)))
        codes.add(code)
        if len(codes) >= max_codes:
            return _PhaseOutcome(obs, False, tuple(sorted(codes)))

        # -- advance to the next trunk node, replaying the recorded exit port.
        trunk_position += 1
        if trunk_position >= total_trunk_nodes:
            break
        port = trunk_exit_ports[trunk_position - 1]
        before = tracker.sightings
        obs = yield moves[port] if 0 <= port < 64 else Move(port)
        entry = obs.entry_port
        if entry is None:
            raise ExplorationError(_NO_ENTRY_PORT)
        entry_ports.append(entry)
        sighted = tracker.sightings > before
        arrived_on_token_node = sighted and tracker.last_was_at_node

    return _PhaseOutcome(obs, True, tuple(sorted(codes)))


def esst_procedure(
    model: CostModel,
    tape: Tape,
    obs: Observation,
    tracker: TokenTracker,
    max_phase: Optional[int] = None,
):
    """The ESST agent program.

    Yields :class:`~repro.sim.actions.Move` actions; returns a pair
    ``(observation, final_phase_index)`` when the procedure terminates.  The
    final phase index ``t`` satisfies ``n < t`` (proof of Theorem 2.1) and is
    therefore the size bound Algorithm SGL uses.

    ``max_phase`` is a safety valve for tests (the procedure provably
    terminates by phase ``9n + 3``, but a mis-reported token would otherwise
    loop forever).
    """
    phase_index = 3
    while True:
        outcome = yield from _phase(phase_index, model, tape, obs, tracker)
        obs = outcome.observation
        if outcome.success:
            return obs, phase_index
        phase_index += 3
        if max_phase is not None and phase_index > max_phase:
            raise ExplorationError(
                f"ESST did not terminate by phase {max_phase}; "
                "the token is probably not being reported correctly"
            )


@dataclass
class ESSTResult:
    """Outcome of a stand-alone run of Procedure ESST.

    Attributes
    ----------
    final_phase:
        Index ``t`` of the successful phase; satisfies ``n < t``.
    traversals:
        Total number of edge traversals performed by the exploring agent.
    visited_nodes:
        Set of node ids visited.
    traversed_edges:
        Set of undirected edges traversed.
    all_edges_traversed:
        Whether every edge of the graph was traversed (Theorem 2.1 says it
        must be).
    sightings:
        Number of token sightings that occurred during the run.
    """

    final_phase: int
    traversals: int
    visited_nodes: frozenset
    traversed_edges: frozenset
    all_edges_traversed: bool
    sightings: int


def run_esst(
    graph: PortLabeledGraph,
    start: int,
    token: Position,
    model: CostModel,
    max_phase: Optional[int] = None,
) -> ESSTResult:
    """Run Procedure ESST directly against ``graph`` with a stationary token.

    The token is a point of the embedding (a node or an interior point of an
    edge) that never moves; this matches the semi-stationary-token setting of
    §2 with the adversary keeping the token still, and the ghost tokens of
    Algorithm SGL.  No adversarial scheduler is involved because a single
    moving agent's cost does not depend on its speed.

    This driver is a *flat* transliteration of :func:`esst_procedure` +
    :func:`_phase`: the same walks, the same abort rules, the same
    backtracks, but as plain loops over the adjacency table instead of the
    generator tower (program → phase → step) that the in-engine agent needs,
    and with only the current phase's tape kept in memory.
    Driving a generator step costs more than an entire flat iteration, so the
    Theorem-2.1 experiments run an order of magnitude faster this way.
    :func:`run_esst_reference` keeps the generator-driven driver;
    ``tests/test_engine_equivalence.py`` checks the two produce identical
    results.
    """
    if start not in graph:
        raise ExplorationError(f"start node {start} is not in the graph")
    if token.is_at_node and token.node not in graph:
        raise ExplorationError(f"token node {token.node} is not in the graph")
    if max_phase is None:
        max_phase = 9 * graph.size + 3

    adj = graph.adjacency()
    token_node = token.node

    # An agent can only ever stand on an isolated node at the very start (any
    # other node is reached through an edge), so the per-step degree check of
    # the generator driver reduces to this one precheck.
    if not adj[start]:
        raise ExplorationError("cannot take a step from an isolated node")

    # Traversed edges are tracked as single ints ``u * stride + v`` (u < v) —
    # one multiply-add instead of a tuple allocation per step.  A token edge
    # with an endpoint outside the graph can never be traversed, hence the
    # ``-1`` (matches nothing) rather than a potentially colliding encoding.
    stride = max(adj) + 1
    if token.edge is not None and token.edge[0] in adj and token.edge[1] in adj:
        token_edge_int = token.edge[0] * stride + token.edge[1]
    else:
        token_edge_int = -1

    # With contiguous node ids (every standard family) the adjacency rows go
    # into a list: subscription stays identical, indexing gets cheaper.
    if set(adj) == set(range(len(adj))):
        adj = [adj[node] for node in range(len(adj))]

    edge_ints: Set[int] = set()
    # Entry ports of the current phase's moves.  Only the trunk and the probe
    # being walked are ever read back (to backtrack them), so the tape is
    # cleared at each phase start; ``moves`` counts the moves of earlier
    # phases and of replayed probes.
    tape: List[int] = []
    moves = 0
    edges_add = edge_ints.add
    tape_append = tape.append

    def run_phase(index: int, current: int, sightings: int, last_at_node: bool):
        """One phase of the procedure; returns (success, current, sightings, last_at_node).

        Every edge traversal is spelled out inline (index the adjacency row,
        record the sighting, push the entry port on the tape): a traversal is
        a handful of int operations, so even one function call per step
        doubles its cost.  The step bodies below are the flat counterpart of
        ``step(tape, port)`` in the generator implementation plus the
        driver-side sighting checks; the int comparisons against
        ``token_edge_int`` / ``token_node`` match nothing when the token sits
        on the other kind of point (or, for ``-1``, outside the graph).
        """
        nonlocal moves
        moves += len(tape)
        tape.clear()
        # -- 1. the trunk R(2i, v); clean = every visited degree <= i - 1.
        phase_start_sightings = sightings
        trunk_exit_ports: List[int] = []
        trunk_ports_append = trunk_exit_ports.append
        row = adj[current]
        degree = len(row)
        clean = degree <= index - 1
        walk_entry: Optional[int] = None  # fresh application: port base 0
        for increment in model.uxs_terms(2 * index):
            port = (increment if walk_entry is None else walk_entry + increment) % degree
            trunk_ports_append(port)
            target, entry_port = row[port]
            key = (
                current * stride + target
                if current < target
                else target * stride + current
            )
            if key == token_edge_int:
                sightings += 1
                last_at_node = False
            elif target == token_node:
                sightings += 1
                last_at_node = True
            current = target
            edges_add(key)
            tape_append(entry_port)
            walk_entry = entry_port
            row = adj[target]
            degree = len(row)
            if degree > index - 1:
                clean = False
        if not clean or sightings == phase_start_sightings:
            return False, current, sightings, last_at_node

        # -- 2. backtrack to the first trunk node u1.
        arrived_on_token_node = False
        for port in tape[::-1]:  # the tape holds just the trunk so far
            before = sightings
            target, entry_port = adj[current][port]
            key = (
                current * stride + target
                if current < target
                else target * stride + current
            )
            if key == token_edge_int:
                sightings += 1
                last_at_node = False
            elif target == token_node:
                sightings += 1
                last_at_node = True
            current = target
            edges_add(key)
            tape_append(entry_port)
            arrived_on_token_node = sightings > before and last_at_node

        # -- 3. run R(i, u_j) from every trunk node u_j.
        #
        # With a stationary token, the probe R(i, u_j) + its backtrack is a
        # pure function of u_j within a phase: same path, same sightings, same
        # code, back at u_j either way.  Trunks revisit the same few nodes
        # over and over (a trunk has P(2i) steps but at most n distinct
        # nodes), so repeated probes replay a memo — the move count and the
        # sighting delta are added and the traversed edges merged in bulk,
        # keeping the traversal count, edge set and sighting total
        # exactly what step-by-step re-execution would produce.  When the
        # replayed probe saw no sighting, ``last_at_node`` keeps its current
        # value, exactly like a sighting-free re-execution would.
        codes: Set[Tuple[int, ...]] = set()
        max_codes = index // 3
        probe_terms = model.uxs_terms(index)
        probe_memo: Dict[int, Tuple] = {}
        trunk_position = 0
        total_trunk_nodes = len(trunk_exit_ports) + 1
        while True:
            code: Optional[Tuple[int, ...]] = None
            if arrived_on_token_node:
                code = ()
            else:
                cached = probe_memo.get(current)
                if cached is not None:
                    code, count, keys, delta, cached_last_at_node = cached
                    moves += count
                    edge_ints.update(keys)
                    if delta:
                        sightings += delta
                        last_at_node = cached_last_at_node
                else:
                    memo_node = current
                    sub_mark = len(tape)
                    probe_keys: List[int] = []
                    probe_keys_append = probe_keys.append
                    ports_taken: List[int] = []
                    walk_entry = None  # fresh application of R(i, u_j)
                    base_sightings = sightings
                    row = adj[current]
                    degree = len(row)
                    for increment in probe_terms:
                        port = (
                            increment if walk_entry is None else walk_entry + increment
                        ) % degree
                        ports_taken.append(port)
                        target, entry_port = row[port]
                        key = (
                            current * stride + target
                            if current < target
                            else target * stride + current
                        )
                        if key == token_edge_int:
                            sightings += 1
                            last_at_node = False
                        elif target == token_node:
                            sightings += 1
                            last_at_node = True
                        current = target
                        edges_add(key)
                        probe_keys_append(key)
                        tape_append(entry_port)
                        walk_entry = entry_port
                        row = adj[target]
                        degree = len(row)
                        if sightings > base_sightings:
                            code = tuple(ports_taken)
                            break
                    for port in reversed(tape[sub_mark:]):
                        target, entry_port = adj[current][port]
                        key = (
                            current * stride + target
                            if current < target
                            else target * stride + current
                        )
                        if key == token_edge_int:
                            sightings += 1
                            last_at_node = False
                        elif target == token_node:
                            sightings += 1
                            last_at_node = True
                        current = target
                        edges_add(key)
                        probe_keys_append(key)
                        tape_append(entry_port)
                    probe_memo[memo_node] = (
                        code,
                        len(tape) - sub_mark,
                        probe_keys,
                        sightings - base_sightings,
                        last_at_node,
                    )
            if code is None:
                return False, current, sightings, last_at_node
            codes.add(code)
            if len(codes) >= max_codes:
                return False, current, sightings, last_at_node

            # -- advance to the next trunk node along the recorded exit port.
            trunk_position += 1
            if trunk_position >= total_trunk_nodes:
                break
            before = sightings
            port = trunk_exit_ports[trunk_position - 1]
            target, entry_port = adj[current][port]
            key = (
                current * stride + target
                if current < target
                else target * stride + current
            )
            if key == token_edge_int:
                sightings += 1
                last_at_node = False
            elif target == token_node:
                sightings += 1
                last_at_node = True
            current = target
            edges_add(key)
            tape_append(entry_port)
            arrived_on_token_node = sightings > before and last_at_node
        return True, current, sightings, last_at_node

    current = start
    sightings = 0
    last_at_node = False
    # If the agent starts exactly at the token, that first coincidence is a
    # sighting (the agent can see a token it is standing on).
    if token_node is not None and token_node == start:
        sightings = 1
        last_at_node = True

    phase_index = 3
    while True:
        success, current, sightings, last_at_node = run_phase(
            phase_index, current, sightings, last_at_node
        )
        if success:
            final_phase = phase_index
            break
        phase_index += 3
        if phase_index > max_phase:
            raise ExplorationError(
                f"ESST did not terminate by phase {max_phase}; "
                "the token is probably not being reported correctly"
            )
    edges = frozenset((key // stride, key % stride) for key in edge_ints)
    # Every node the walk reached (other than the start) is an endpoint of a
    # traversed edge, so the visited set needs no per-step bookkeeping.
    visited = {start}
    for u, v in edges:
        visited.add(u)
        visited.add(v)
    return ESSTResult(
        final_phase=final_phase,
        traversals=moves + len(tape),
        visited_nodes=frozenset(visited),
        traversed_edges=edges,
        all_edges_traversed=len(edges) == graph.num_edges,
        sightings=sightings,
    )


def run_esst_reference(
    graph: PortLabeledGraph,
    start: int,
    token: Position,
    model: CostModel,
    max_phase: Optional[int] = None,
) -> ESSTResult:
    """Generator-driven stand-alone ESST driver.

    Drives :func:`esst_procedure` exactly the way the asynchronous engine
    drives the in-agent program (actions out, observations in), against a
    known graph with a stationary token.  Slower than :func:`run_esst` but
    structurally identical to the engine-side execution; the equivalence
    tests run both and compare.
    """
    if start not in graph:
        raise ExplorationError(f"start node {start} is not in the graph")
    if token.is_at_node and token.node not in graph:
        raise ExplorationError(f"token node {token.node} is not in the graph")
    if max_phase is None:
        max_phase = 9 * graph.size + 3

    tracker = TokenTracker()
    tape = Tape()
    current = start
    entry: Optional[int] = None
    traversals = 0
    visited = {start}
    edges: Set[EdgeKey] = set()

    def observe() -> Observation:
        return Observation(
            degree=graph.degree(current),
            entry_port=entry,
            traversals=traversals,
        )

    # If the agent starts exactly at the token, that first coincidence is a
    # sighting (the agent can see a token it is standing on).
    if token.is_at_node and token.node == start:
        tracker.record_sighting(at_node=True)

    program = esst_procedure(model, tape, observe(), tracker, max_phase=max_phase)
    try:
        action = next(program)
        while True:
            if not isinstance(action, Move):
                raise ExplorationError(
                    f"ESST produced an unexpected action {action!r}"
                )
            target, entry_port = graph.traverse(current, action.port)
            key = edge_key(current, target)
            # Token sightings caused by this traversal: passing through the
            # interior of the token's edge, or arriving at the token's node.
            if token.is_inside_edge and token.edge == key:
                tracker.record_sighting(at_node=False)
            if token.is_at_node and token.node == target:
                tracker.record_sighting(at_node=True)
            current = target
            entry = entry_port
            traversals += 1
            visited.add(current)
            edges.add(key)
            action = program.send(observe())
    except StopIteration as stop:
        _final_obs, final_phase = stop.value
    return ESSTResult(
        final_phase=final_phase,
        traversals=traversals,
        visited_nodes=frozenset(visited),
        traversed_edges=frozenset(edges),
        all_edges_traversed=len(edges) == graph.num_edges,
        sightings=tracker.sightings,
    )
