"""Neighbour layering, connection weights, masking, and conversions."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gnar import (
    Edge,
    Network,
    RngStream,
    connection_weights,
    from_adjacency,
    load_network,
    neighbour_set,
    network_from_json,
    network_to_json,
    read_adjacency_csv,
    save_network,
    to_adjacency,
    weight_matrix,
    write_adjacency_csv,
)
from conftest import make_five_net, random_network

FIVE_NET_ADJ = np.array([
    [0, 0, 0, 1, 1],
    [0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0],
    [1, 1, 1, 0, 0],
    [1, 0, 0, 0, 0],
], dtype=float)


def names_of(net, ids):
    return sorted(net.name_of(i) for i in ids)


def weights_by_name(net, wm):
    return {net.name_of(q): w for (q, _), w in wm.weights.items()}


# --- stage-r neighbour sets -------------------------------------------------


def test_five_net_stage_sets(five_net):
    assert names_of(five_net, neighbour_set(five_net, 4, 1).members) == [
        "A", "B", "C"]
    assert names_of(five_net, neighbour_set(five_net, 5, 1).members) == ["A"]
    assert names_of(five_net, neighbour_set(five_net, 5, 2).members) == ["D"]
    assert names_of(five_net, neighbour_set(five_net, 5, 3).members) == [
        "B", "C"]
    assert neighbour_set(five_net, 5, 4).members == frozenset()
    assert neighbour_set(five_net, 5, 5).members == frozenset()


def test_neighbour_set_validation(five_net):
    with pytest.raises(ValueError):
        neighbour_set(five_net, 0, 1)
    with pytest.raises(ValueError):
        neighbour_set(five_net, 6, 1)
    with pytest.raises(ValueError):
        neighbour_set(five_net, 1, 0)


@given(st.integers(min_value=0, max_value=400))
def test_layers_are_disjoint_and_exclude_origin(seed):
    rng = RngStream(seed)
    net = random_network(rng, 3 + int(rng.uniform() * 5),
                         directed=rng.uniform() < 0.4)
    for origin in range(1, net.n_nodes + 1):
        seen: set[int] = set()
        for r in range(1, net.n_nodes + 1):
            members = neighbour_set(net, origin, r).members
            assert origin not in members
            assert not (members & seen)
            seen |= members


def test_masked_neighbour_set_uses_subgraph(five_net):
    # without A, node E is cut off from the rest of the graph entirely
    obs = (2, 3, 4, 5)
    assert neighbour_set(five_net, 5, 1, mask=obs).members == frozenset()
    assert neighbour_set(five_net, 5, 2, mask=obs).members == frozenset()
    # D keeps B and C at stage 1 but loses A
    assert names_of(five_net,
                    neighbour_set(five_net, 4, 1, mask=obs).members) == [
        "B", "C"]


# --- connection weights -----------------------------------------------------


def test_five_net_unit_weights(five_net):
    assert weights_by_name(five_net, connection_weights(five_net, 5, 1)) == {
        "A": 1.0}
    assert weights_by_name(five_net, connection_weights(five_net, 1, 1)) == {
        "D": 0.5, "E": 0.5}
    w_d = weights_by_name(five_net, connection_weights(five_net, 4, 1))
    assert w_d == pytest.approx({"A": 1 / 3, "B": 1 / 3, "C": 1 / 3})


def test_weight_asymmetry_on_undirected_graph(five_net):
    # weights need not be symmetric even though the graph is
    w_ea = connection_weights(five_net, 5, 1).weights[(1, 1)]
    w_ae = connection_weights(five_net, 1, 1).weights[(5, 1)]
    assert w_ea == 1.0
    assert w_ae == 0.5


def test_masked_weights_reweight_mode(five_net):
    # node A unobserved: D renormalizes over B and C, and stage-2/3 sets of
    # E keep their members even though every path to them runs through A
    obs = (2, 3, 4, 5)
    w_d = connection_weights(five_net, 4, 1, mask=obs)
    assert weights_by_name(five_net, w_d) == {"A": 0.0, "B": 0.5, "C": 0.5}
    assert w_d.total() == pytest.approx(1.0, abs=1e-12)
    w_e2 = connection_weights(five_net, 5, 2, mask=obs)
    assert weights_by_name(five_net, w_e2) == {"D": 1.0}
    w_e3 = connection_weights(five_net, 5, 3, mask=obs)
    assert weights_by_name(five_net, w_e3) == {"B": 0.5, "C": 0.5}
    # E's own stage-1 set is exactly the missing node: all-zero map
    w_e1 = connection_weights(five_net, 5, 1, mask=obs)
    assert weights_by_name(five_net, w_e1) == {"A": 0.0}
    assert w_e1.total() == 0.0


def test_masked_weights_mask_c(five_net):
    obs = (1, 2, 4, 5)
    w_d = connection_weights(five_net, 4, 1, mask=obs)
    assert weights_by_name(five_net, w_d) == {"A": 0.5, "B": 0.5, "C": 0.0}


def test_masked_weights_subgraph_mode(five_net):
    obs = (2, 3, 4, 5)
    w = connection_weights(five_net, 5, 2, mask=obs, mask_mode="subgraph")
    assert w.weights == {}
    w_d = connection_weights(five_net, 4, 1, mask=obs,
                             mask_mode="subgraph")
    assert weights_by_name(five_net, w_d) == {"B": 0.5, "C": 0.5}


def test_unknown_mask_mode_raises(five_net):
    with pytest.raises(ValueError):
        connection_weights(five_net, 4, 1, mask=(1, 2), mask_mode="drop")


@given(st.integers(min_value=0, max_value=300))
def test_weights_normalize_per_stage(seed):
    rng = RngStream(seed)
    net = random_network(rng, 3 + int(rng.uniform() * 6),
                         n_cov=1 + int(rng.uniform() * 3),
                         directed=rng.uniform() < 0.4)
    for origin in range(1, net.n_nodes + 1):
        for r in range(1, 4):
            wm = connection_weights(net, origin, r)
            if wm.weights:
                assert wm.total() == pytest.approx(1.0, abs=1e-12)
                assert all(0.0 <= v <= 1.0 for v in wm.weights.values())
            assert set(wm.node_weights()) == neighbour_set(
                net, origin, r).members


@given(st.integers(min_value=0, max_value=200))
def test_masking_node_outside_stage_changes_nothing(seed):
    rng = RngStream(seed)
    net = random_network(rng, 4 + int(rng.uniform() * 4))
    origin = 1 + int(rng.uniform() * net.n_nodes)
    r = 1 + int(rng.uniform() * 2)
    members = neighbour_set(net, origin, r).members
    outside = [m for m in range(1, net.n_nodes + 1)
               if m != origin and m not in members]
    if not outside:
        return
    drop = outside[int(rng.uniform() * len(outside))]
    obs = tuple(k for k in range(1, net.n_nodes + 1) if k != drop)
    assert connection_weights(net, origin, r, mask=obs).weights == \
        connection_weights(net, origin, r).weights


# --- layered-DP distances against exhaustive walk enumeration ---------------


def enumerate_walk_minima(net, origin, r):
    """Min (dist, node path, final-edge covariate) over all r-edge walks."""
    adj = defaultdict(list)
    for e in net.edges:
        adj[e.from_id].append((e.to_id, e.dist, e.cov))
        if not net.directed:
            adj[e.to_id].append((e.from_id, e.dist, e.cov))
    best = {}

    def go(node, depth, dist, path, cov):
        if depth == r:
            cand = (dist, path, cov)
            if node not in best or cand < best[node]:
                best[node] = cand
            return
        for nxt, d, c in adj[node]:
            go(nxt, depth + 1, dist + d, path + (nxt,), c)

    go(origin, 0, 0.0, (origin,), 0)
    return best


def bfs_stages(net, origin):
    adj = defaultdict(set)
    for e in net.edges:
        adj[e.from_id].add(e.to_id)
        if not net.directed:
            adj[e.to_id].add(e.from_id)
    stage = {origin: 0}
    frontier = [origin]
    r = 0
    while frontier:
        r += 1
        nxt = sorted({v for u in frontier for v in adj[u] if v not in stage})
        for v in nxt:
            stage[v] = r
        frontier = nxt
    return stage


@given(st.integers(min_value=0, max_value=150))
def test_stage_distances_match_walk_enumeration(seed):
    rng = RngStream(seed)
    net = random_network(rng, 4 + int(rng.uniform() * 5),
                         n_cov=1 + int(rng.uniform() * 2),
                         directed=rng.uniform() < 0.5)
    origin = 1 + int(rng.uniform() * net.n_nodes)
    stages = bfs_stages(net, origin)
    for r in range(1, 5):
        want_members = {v for v, st_ in stages.items() if st_ == r}
        got = connection_weights(net, origin, r)
        assert set(got.node_weights()) == want_members
        if not want_members:
            continue
        walk_best = enumerate_walk_minima(net, origin, r)
        inv = {v: 1.0 / walk_best[v][0] for v in want_members}
        denom = sum(inv.values())
        for (q, cov), w in got.weights.items():
            assert w == pytest.approx(inv[q] / denom, abs=1e-12)
            assert cov == walk_best[q][2]


def test_tie_break_prefers_lexicographically_smallest_path():
    # two equal-length two-edge routes from 1 to 4: via 2 (cov 2) and via
    # 3 (cov 1); the route through node 2 wins, so covariate 2 is attributed
    net = Network(n_nodes=4, edges=(
        Edge(1, 2, 1.0, 2), Edge(1, 3, 1.0, 1),
        Edge(2, 4, 1.0, 2), Edge(3, 4, 1.0, 1),
    ), n_cov=2)
    wm = connection_weights(net, 1, 2)
    assert wm.weights == {(4, 2): 1.0}


def test_tie_break_parallel_edges_prefers_smaller_covariate():
    net = Network(n_nodes=2, edges=(Edge(1, 2, 1.0, 2), Edge(1, 2, 1.0, 1)),
                  n_cov=2)
    wm = connection_weights(net, 1, 1)
    assert wm.weights == {(2, 1): 1.0}


def test_shorter_parallel_edge_wins_regardless_of_covariate():
    net = Network(n_nodes=2, edges=(Edge(1, 2, 0.5, 2), Edge(1, 2, 1.0, 1)),
                  n_cov=2)
    wm = connection_weights(net, 1, 1)
    assert wm.weights == {(2, 2): 1.0}


def test_distance_weighted_stage_one(five_net):
    net = Network(n_nodes=5, edges=(
        Edge(1, 4, 2.0), Edge(1, 5, 1.0), Edge(2, 3, 1.0),
        Edge(2, 4, 1.0), Edge(3, 4, 4.0),
    ), node_names=("A", "B", "C", "D", "E"))
    wm = connection_weights(net, 4, 1)
    inv = {1: 1 / 2.0, 2: 1 / 1.0, 3: 1 / 4.0}
    denom = sum(inv.values())
    for (q, _), w in wm.weights.items():
        assert w == pytest.approx(inv[q] / denom, abs=1e-14)


# --- weight matrices ---------------------------------------------------------


def test_weight_matrix_five_net_row_e(five_net):
    w = weight_matrix(five_net, 1, 1)
    assert np.allclose(w[4], [1, 0, 0, 0, 0])
    assert np.allclose(w.sum(axis=1), 1.0)


def test_weight_matrix_row_sums_zero_or_one():
    rng = RngStream(42)
    for _ in range(20):
        net = random_network(rng, 3 + int(rng.uniform() * 5),
                             n_cov=1 + int(rng.uniform() * 2),
                             directed=rng.uniform() < 0.5)
        for r in range(1, 4):
            total = sum(weight_matrix(net, r, c)
                        for c in range(1, net.n_cov + 1))
            sums = total.sum(axis=1)
            empty = np.array([
                not neighbour_set(net, i, r).members
                for i in range(1, net.n_nodes + 1)
            ])
            assert np.allclose(sums[empty], 0.0)
            assert np.allclose(sums[~empty], 1.0)


def test_weight_matrix_masked(five_net):
    # weight_matrix is unmasked; masked rows come from connection_weights
    wm = connection_weights(five_net, 4, 1, mask=(2, 3, 4, 5))
    assert wm.node_weights() == pytest.approx({1: 0.0, 2: 0.5, 3: 0.5})
    with pytest.raises(ValueError):
        weight_matrix(five_net, 1, 2)


# --- construction and validation ---------------------------------------------


def test_network_validation():
    with pytest.raises(ValueError):
        Network(n_nodes=0)
    with pytest.raises(ValueError):
        Network(n_nodes=2, edges=(Edge(1, 1),))
    with pytest.raises(ValueError):
        Network(n_nodes=2, edges=(Edge(1, 3),))
    with pytest.raises(ValueError):
        Network(n_nodes=2, edges=(Edge(1, 2, -1.0),))
    with pytest.raises(ValueError):
        Network(n_nodes=2, edges=(Edge(1, 2, 1.0, 2),))
    with pytest.raises(ValueError):
        Network(n_nodes=2, node_names=("x",))
    with pytest.raises(ValueError):
        Network(n_nodes=2, node_names=("x", "x"))


def test_undirected_edges_stored_canonically():
    net = Network(n_nodes=3, edges=(Edge(3, 1), Edge(2, 3)))
    assert all(e.from_id < e.to_id for e in net.edges)
    directed = Network(n_nodes=3, edges=(Edge(3, 1),), directed=True)
    assert directed.edges[0] == Edge(3, 1, 1.0, 1)


def test_default_names_and_lookup():
    net = Network(n_nodes=3)
    assert net.node_names == ("node1", "node2", "node3")
    assert net.id_of("node2") == 2
    assert net.name_of(3) == "node3"
    with pytest.raises(KeyError):
        net.id_of("nope")


# --- adjacency conversions ----------------------------------------------------


def test_five_net_adjacency_round_trip(five_net):
    assert np.array_equal(to_adjacency(five_net), FIVE_NET_ADJ)
    # the printed matrix is symmetric, so the rebuilt network is undirected
    rebuilt = from_adjacency(FIVE_NET_ADJ,
                             node_names=("A", "B", "C", "D", "E"))
    assert not rebuilt.directed
    assert set(rebuilt.edges) == set(five_net.edges)


def test_from_adjacency_zero_matrix():
    net = from_adjacency(np.zeros((4, 4)))
    assert net.n_edges == 0
    assert np.array_equal(to_adjacency(net), np.zeros((4, 4)))


def test_from_adjacency_directed_single_edge():
    a = np.zeros((3, 3))
    a[0, 2] = 2.0
    net = from_adjacency(a, interpret="distances")
    assert net.directed
    assert net.edges == (Edge(1, 3, 2.0, 1),)
    inv = from_adjacency(a, interpret="weights")
    assert inv.edges == (Edge(1, 3, 0.5, 1),)


def test_from_adjacency_validation():
    with pytest.raises(ValueError):
        from_adjacency(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        from_adjacency(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        from_adjacency(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        from_adjacency(np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        from_adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]), symmetrize=True)


def test_from_adjacency_symmetrize_merges_triangles():
    a = np.zeros((3, 3))
    a[0, 1] = 2.0
    a[2, 1] = 3.0
    net = from_adjacency(a, symmetrize=True)
    assert not net.directed
    assert set(net.edges) == {Edge(1, 2, 2.0, 1), Edge(2, 3, 3.0, 1)}


@given(st.integers(min_value=0, max_value=200))
def test_adjacency_round_trip_random(seed):
    rng = RngStream(seed)
    net = random_network(rng, 10, directed=rng.uniform() < 0.5)
    back = from_adjacency(to_adjacency(net), node_names=net.node_names)
    assert back.directed == net.directed
    assert set(back.edges) == set(net.edges)


def test_to_adjacency_rejects_parallel_edges():
    net = Network(n_nodes=2, edges=(Edge(1, 2, 1.0, 1), Edge(1, 2, 2.0, 2)),
                  n_cov=2)
    with pytest.raises(ValueError):
        to_adjacency(net)


# --- serialisation -------------------------------------------------------------


def test_network_json_round_trip():
    rng = RngStream(3)
    net = random_network(rng, 6, n_cov=2, directed=True)
    obj = network_to_json(net)
    assert set(obj) == {"n_nodes", "names", "directed", "C", "edges"}
    assert network_from_json(obj) == net


def test_network_json_malformed():
    with pytest.raises(ValueError):
        network_from_json({"names": ["a"]})


def test_network_file_round_trip(tmp_path, five_net):
    path = tmp_path / "net.json"
    save_network(five_net, path)
    assert load_network(path) == five_net


def test_adjacency_csv_round_trip(tmp_path, five_net):
    path = tmp_path / "adj.csv"
    write_adjacency_csv(five_net, path)
    mat, names = read_adjacency_csv(path)
    assert names == ("A", "B", "C", "D", "E")
    assert np.array_equal(mat, FIVE_NET_ADJ)
