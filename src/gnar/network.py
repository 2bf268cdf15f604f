"""Static node-labelled networks, stage-r neighbourhoods, connection weights.

A network is a set of nodes ``1..n`` joined by edges that carry a positive
length (``dist``) and a covariate channel (``cov``).  Stage-r neighbourhoods
are breadth-first layers: ``N^(r)(i)`` holds the nodes first reached from
``i`` in exactly ``r`` hops, following edge direction for directed networks.
Connection weights split unit mass over a stage by inverse path length, where
the length of a stage-r neighbour is the cheapest sum of edge lengths over
r-edge paths (such paths necessarily climb one BFS layer per hop).

Two masking behaviours are supported when some nodes are unobserved:

* ``"reweight"`` (default): layers and path lengths are computed on the full
  graph; unobserved neighbours get weight exactly 0 and the remaining
  weights are renormalised to sum to one.  Unobserved nodes still mediate
  paths to deeper stages.
* ``"subgraph"``: unobserved nodes are removed before layering, so they
  neither receive weight nor mediate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np


class Edge(NamedTuple):
    from_id: int
    to_id: int
    dist: float = 1.0
    cov: int = 1


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(f"node{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class Network:
    """Immutable network over nodes ``1..n_nodes``.

    Undirected edges are stored once, canonically with ``from_id < to_id``.
    Parallel edges between a pair are permitted (e.g. one per covariate).
    """

    n_nodes: int
    edges: tuple[Edge, ...] = ()
    node_names: tuple[str, ...] = ()
    directed: bool = False
    n_cov: int = 1

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("network needs at least one node")
        if self.n_cov < 1:
            raise ValueError("covariate cardinality must be >= 1")
        names = tuple(self.node_names) or _default_names(self.n_nodes)
        if len(names) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} node names, got {len(names)}"
            )
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        if not all(isinstance(s, str) and s for s in names):
            raise ValueError("node names must be non-empty strings")
        edges = []
        for e in self.edges:
            e = Edge(int(e[0]), int(e[1]), float(e[2]), int(e[3]))
            if not (1 <= e.from_id <= self.n_nodes
                    and 1 <= e.to_id <= self.n_nodes):
                raise ValueError(f"edge {e} references an unknown node")
            if e.from_id == e.to_id:
                raise ValueError(f"self-loop on node {e.from_id}")
            if not (np.isfinite(e.dist) and e.dist > 0.0):
                raise ValueError(f"edge {e} needs a positive finite length")
            if not 1 <= e.cov <= self.n_cov:
                raise ValueError(f"edge {e} covariate outside 1..{self.n_cov}")
            if not self.directed and e.from_id > e.to_id:
                e = Edge(e.to_id, e.from_id, e.dist, e.cov)
            edges.append(e)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "node_names", names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def name_of(self, node_id: int) -> str:
        return self.node_names[node_id - 1]

    def id_of(self, name: str) -> int:
        try:
            return self.node_names.index(name) + 1
        except ValueError:
            raise KeyError(f"unknown node name {name!r}") from None


@dataclass(frozen=True)
class NeighbourSet:
    origin: int
    stage: int
    members: frozenset[int]


@dataclass(frozen=True)
class WeightMap:
    """Connection weights of one origin node at one stage.

    ``weights`` is keyed by ``(neighbour, covariate)``; each neighbour is
    attributed to exactly one covariate (that of the final edge on its
    minimising path, ties resolved towards the lexicographically smallest
    node sequence, then the smallest covariate index).  Masked neighbours
    keep an entry with weight exactly 0.0.
    """

    origin: int
    stage: int
    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    def node_weights(self) -> dict[int, float]:
        return {node: w for (node, _), w in self.weights.items()}

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def __len__(self) -> int:
        return len(self.weights)


@lru_cache(maxsize=1024)
def _adjacency(net: Network) -> dict[int, tuple[tuple[int, float, int], ...]]:
    out: dict[int, list[tuple[int, float, int]]] = {
        i: [] for i in range(1, net.n_nodes + 1)
    }
    for e in net.edges:
        out[e.from_id].append((e.to_id, e.dist, e.cov))
        if not net.directed:
            out[e.to_id].append((e.from_id, e.dist, e.cov))
    return {i: tuple(v) for i, v in out.items()}


def _compute_layering(net: Network, origin: int,
                      allowed: frozenset[int] | None):
    """BFS layers plus stage-consistent shortest path length per node.

    Returns ``{node: (stage, dist, cov)}`` for every node reachable from
    ``origin`` (excluding the origin itself).  ``dist`` is the minimum sum of
    edge lengths over paths of exactly ``stage`` edges; such paths climb one
    layer per hop, so a layered dynamic program suffices.  Ties pick the
    lexicographically smallest node sequence, then the smallest covariate.
    """
    adj = _adjacency(net)
    stage_of = {origin: 0}
    # per node: (dist, path, cov of final edge)
    best: dict[int, tuple[float, tuple[int, ...], int]] = {
        origin: (0.0, (origin,), 0)
    }
    frontier = [origin]
    stage = 0
    while frontier:
        stage += 1
        new: dict[int, tuple[float, tuple[int, ...], int]] = {}
        for u in frontier:
            du, pu, _ = best[u]
            for v, w, cov in adj[u]:
                if v in stage_of:
                    continue
                if allowed is not None and v not in allowed:
                    continue
                cand = (du + w, pu + (v,), cov)
                prev = new.get(v)
                if prev is None or cand < prev:
                    new[v] = cand
        for v, cand in new.items():
            stage_of[v] = stage
            best[v] = cand
        frontier = sorted(new)
    return {
        v: (stage_of[v], best[v][0], best[v][2])
        for v in stage_of
        if v != origin
    }


@lru_cache(maxsize=8192)
def _full_layering(net: Network, origin: int):
    return _compute_layering(net, origin, None)


@lru_cache(maxsize=8192)
def _subgraph_layering(net: Network, origin: int, allowed: frozenset[int]):
    return _compute_layering(net, origin, allowed)


def _check_node(net: Network, i: int) -> None:
    if not 1 <= i <= net.n_nodes:
        raise ValueError(f"node id {i} outside 1..{net.n_nodes}")


def _check_mask(net: Network, mask: Iterable[int]) -> frozenset[int]:
    observed = frozenset(int(m) for m in mask)
    for m in observed:
        if not 1 <= m <= net.n_nodes:
            raise ValueError(f"mask id {m} outside 1..{net.n_nodes}")
    return observed


def neighbour_set(net: Network, i: int, r: int,
                  mask: Iterable[int] | None = None) -> NeighbourSet:
    """Stage-``r`` neighbourhood of node ``i``.

    With ``mask`` (the set of observed nodes) the unobserved nodes are
    removed entirely before layering, so they neither appear as members nor
    mediate deeper stages.  The origin itself always remains traversable.
    Stages beyond the graph's reach yield an empty set, not an error.
    """
    _check_node(net, i)
    if r < 1:
        raise ValueError("stage must be >= 1")
    if mask is None:
        layering = _full_layering(net, i)
    else:
        layering = _subgraph_layering(net, i, _check_mask(net, mask))
    members = frozenset(v for v, (st, _, _) in layering.items() if st == r)
    return NeighbourSet(origin=i, stage=r, members=members)


MaskMode = Literal["reweight", "subgraph"]


def connection_weights(net: Network, i: int, r: int,
                       mask: Iterable[int] | None = None,
                       mask_mode: MaskMode = "reweight") -> WeightMap:
    """Inverse-path-length weights over the stage-``r`` neighbours of ``i``.

    Without a mask the weights over a non-empty stage sum to exactly one.
    With ``mask_mode="reweight"`` (default) the stage membership and path
    lengths come from the full graph: unobserved members get weight 0.0 and
    the observed remainder renormalises to one (all-unobserved stages give
    an all-zero map).  With ``mask_mode="subgraph"`` the stage itself is
    recomputed with unobserved nodes deleted.
    """
    _check_node(net, i)
    if r < 1:
        raise ValueError("stage must be >= 1")
    if mask_mode not in ("reweight", "subgraph"):
        raise ValueError(f"unknown mask mode {mask_mode!r}")
    observed = None if mask is None else _check_mask(net, mask)
    if observed is not None and mask_mode == "subgraph":
        layering = _subgraph_layering(net, i, observed)
        observed = None  # members are all observed by construction
    else:
        layering = _full_layering(net, i)
    members = [(v, d, c) for v, (st, d, c) in layering.items() if st == r]
    members.sort()
    weights: dict[tuple[int, int], float] = {}
    if observed is None:
        denom = sum(1.0 / d for _, d, _ in members)
        for v, d, c in members:
            weights[(v, c)] = (1.0 / d) / denom
    else:
        denom = sum(1.0 / d for v, d, _ in members if v in observed)
        for v, d, c in members:
            if v in observed and denom > 0.0:
                weights[(v, c)] = (1.0 / d) / denom
            else:
                weights[(v, c)] = 0.0
    return WeightMap(origin=i, stage=r, weights=weights)


def weight_matrix(net: Network, r: int, c: int) -> np.ndarray:
    """Matrix ``W`` with ``W[i-1, q-1]`` the unmasked weight of ``q`` for
    origin ``i`` at stage ``r`` restricted to covariate channel ``c``."""
    if not 1 <= c <= net.n_cov:
        raise ValueError(f"covariate {c} outside 1..{net.n_cov}")
    n = net.n_nodes
    w = np.zeros((n, n))
    for i in range(1, n + 1):
        for (q, cov), val in connection_weights(net, i, r).weights.items():
            if cov == c:
                w[i - 1, q - 1] = val
    return w


# ---------------------------------------------------------------------------
# adjacency-matrix form


def from_adjacency(a, interpret: Literal["distances", "weights"] = "distances",
                   symmetrize: bool = False,
                   node_names: Sequence[str] | None = None) -> Network:
    """Build a network from a square non-negative matrix.

    A positive entry ``a[i, j]`` is an edge ``i -> j``; its value is the edge
    length under ``interpret="distances"`` or a closeness score under
    ``interpret="weights"`` (stored length ``1/a[i, j]``).  A symmetric
    matrix yields an undirected network, an asymmetric one a directed
    network, unless ``symmetrize=True`` merges the two triangles first
    (conflicting nonzero values raise).  The diagonal must be zero.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency entries must be finite")
    if np.any(a < 0):
        raise ValueError("adjacency entries must be non-negative")
    if np.any(np.diag(a) != 0):
        raise ValueError("adjacency diagonal must be zero")
    if interpret not in ("distances", "weights"):
        raise ValueError(f"unknown interpretation {interpret!r}")
    n = a.shape[0]
    if symmetrize:
        both = (a > 0) & (a.T > 0) & (a != a.T)
        if np.any(both):
            i, j = np.argwhere(both)[0]
            raise ValueError(
                f"cannot symmetrize: entries ({i + 1},{j + 1}) and "
                f"({j + 1},{i + 1}) disagree"
            )
        a = np.maximum(a, a.T)
    directed = not np.array_equal(a, a.T)
    edges = []
    for i in range(n):
        cols = range(n) if directed else range(i + 1, n)
        for j in cols:
            if a[i, j] > 0:
                dist = a[i, j] if interpret == "distances" else 1.0 / a[i, j]
                edges.append(Edge(i + 1, j + 1, float(dist), 1))
    names = tuple(node_names) if node_names is not None else ()
    return Network(n_nodes=n, edges=tuple(edges), node_names=names,
                   directed=directed, n_cov=1)


def to_adjacency(net: Network) -> np.ndarray:
    """Distance matrix form; undirected edges fill both triangles.

    Covariate channels cannot be represented here, and parallel edges make
    the form ambiguous, so they raise.
    """
    seen = set()
    a = np.zeros((net.n_nodes, net.n_nodes))
    for e in net.edges:
        key = (e.from_id, e.to_id)
        if key in seen:
            raise ValueError(
                f"parallel edges between {e.from_id} and {e.to_id} cannot "
                "be written as an adjacency matrix"
            )
        seen.add(key)
        a[e.from_id - 1, e.to_id - 1] = e.dist
        if not net.directed:
            a[e.to_id - 1, e.from_id - 1] = e.dist
    return a


# ---------------------------------------------------------------------------
# serialisation


def network_to_json(net: Network) -> dict:
    return {
        "n_nodes": net.n_nodes,
        "names": list(net.node_names),
        "directed": net.directed,
        "C": net.n_cov,
        "edges": [
            {"from": e.from_id, "to": e.to_id, "dist": e.dist, "cov": e.cov}
            for e in net.edges
        ],
    }


def network_from_json(obj: dict) -> Network:
    try:
        edges = tuple(
            Edge(int(e["from"]), int(e["to"]),
                 float(e.get("dist", 1.0)), int(e.get("cov", 1)))
            for e in obj.get("edges", [])
        )
        return Network(
            n_nodes=int(obj["n_nodes"]),
            edges=edges,
            node_names=tuple(obj.get("names") or ()),
            directed=bool(obj.get("directed", False)),
            n_cov=int(obj.get("C", 1)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed network object: {exc}") from exc


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_json(net), fh, indent=2)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_json(json.load(fh))


def write_adjacency_csv(net: Network, path) -> None:
    a = to_adjacency(net)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(net.node_names)
        for row in a:
            writer.writerow([format(v, ".17g") for v in row])


def read_adjacency_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty adjacency file")
    names = tuple(s.strip() for s in rows[0])
    data = []
    for row in rows[1:]:
        if not row:
            continue
        data.append([float(v) for v in row])
    a = np.asarray(data, dtype=float)
    if a.shape != (len(names), len(names)):
        raise ValueError(
            f"adjacency block must be {len(names)}x{len(names)}, "
            f"got {a.shape}"
        )
    return a, names
