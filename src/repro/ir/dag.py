"""Dependency-DAG analysis of flat circuits.

Gates that share a qubit are data-dependent; gates on disjoint qubits can
run in parallel.  The DAG view provides circuit depth, the critical path,
per-layer parallelism and an ASAP layering, all of which feed the gate
scheduler and the evaluation metrics.  Graphs are plain dicts: the
dependency DAG maps each gate index to its successors, the interaction
graph maps each qubit pair to its two-qubit gate count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate


def build_dependency_dag(circuit: Circuit) -> Dict[int, List[int]]:
    """Build the gate dependency DAG as ``gate index -> successor indices``.

    Every gate position is a key; ``v in dag[u]`` means gate v must run
    after gate u because they share at least one qubit and v appears later
    in program order.  Only the most recent writer per qubit is linked, so
    the graph is the transitive reduction along each wire.  Successor
    lists are ascending.
    """
    successors: Dict[int, List[int]] = {}
    last_on_wire: Dict[int, int] = {}
    for index, gate in enumerate(circuit):
        successors[index] = []
        predecessors = {last_on_wire[q] for q in gate.qubits if q in last_on_wire}
        for pred in predecessors:
            successors[pred].append(index)
        for q in gate.qubits:
            last_on_wire[q] = index
    return successors


def asap_layers(circuit: Circuit) -> List[List[int]]:
    """Partition gate indices into ASAP layers (greedy earliest start)."""
    layer_of: Dict[int, int] = {}
    wire_layer: Dict[int, int] = {}
    for index, gate in enumerate(circuit):
        if not gate.qubits:
            layer_of[index] = 0
            continue
        start = max((wire_layer.get(q, 0) for q in gate.qubits), default=0)
        layer_of[index] = start
        for q in gate.qubits:
            wire_layer[q] = start + 1
    if not layer_of:
        return []
    depth = max(layer_of.values()) + 1
    layers: List[List[int]] = [[] for _ in range(depth)]
    for index, layer in layer_of.items():
        layers[layer].append(index)
    return layers


def critical_path(circuit: Circuit) -> List[int]:
    """Return gate indices along one longest dependency chain.

    Of equally long chains, the one ending at the earliest gate is
    returned, and along it each gate's earliest longest predecessor.
    """
    successors = build_dependency_dag(circuit)
    if not successors:
        return []
    length = [1] * len(successors)
    parent = [-1] * len(successors)
    # Program order is a topological order of the DAG.
    for gate, later in successors.items():
        for successor in later:
            if length[gate] + 1 > length[successor]:
                length[successor] = length[gate] + 1
                parent[successor] = gate
    path = [max(range(len(length)), key=length.__getitem__)]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


@dataclass(frozen=True)
class ParallelismProfile:
    """Summary of available gate-level parallelism in a circuit.

    Attributes:
        depth: Number of ASAP layers.
        total_gates: Total gate count.
        max_width: Maximum gates in any single layer.
        average_width: Mean gates per layer.
    """

    depth: int
    total_gates: int
    max_width: int
    average_width: float


def parallelism_profile(circuit: Circuit) -> ParallelismProfile:
    """Compute the parallelism profile of ``circuit``."""
    layers = asap_layers(circuit)
    total = sum(len(layer) for layer in layers)
    if not layers:
        return ParallelismProfile(depth=0, total_gates=0, max_width=0, average_width=0.0)
    return ParallelismProfile(
        depth=len(layers),
        total_gates=total,
        max_width=max(len(layer) for layer in layers),
        average_width=total / len(layers),
    )


def interaction_graph(circuit: Circuit) -> Dict[Tuple[int, int], int]:
    """Weighted qubit-interaction graph as ``(a, b) -> weight``.

    Keys are qubit pairs with ``a < b``; the weight counts the multi-qubit
    gates acting on both.  Pairs that never interact are absent.
    """
    weights: Dict[Tuple[int, int], int] = {}
    for gate in circuit:
        if gate.num_qubits < 2:
            continue
        qubits: Tuple[int, ...] = gate.qubits
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                a, b = qubits[i], qubits[j]
                pair = (a, b) if a < b else (b, a)
                weights[pair] = weights.get(pair, 0) + 1
    return weights
