"""Property tests: topology queries and free-site searches against references.

Every :class:`Topology` query is checked against a breadth-first search
over the topology's own edge list, and the lattice free-site ring search
against a direct walk over ring coordinates, so the flat-array fast
paths cannot drift from the plain definitions.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.braid import manhattan_route, route_vertices
from repro.arch.mapping import Layout
from repro.arch.topology import Topology
from repro.core.allocation import AllocationRequest, LifoAllocation
from repro.core.heap import AncillaHeap
from repro.arch.nisq import NISQMachine
from repro.exceptions import ArchitectureError
from repro.scheduler.asap import GateScheduler


# ----------------------------------------------------------------------
# Topologies paired with the edge list they should realise
# ----------------------------------------------------------------------
@st.composite
def grids(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    return Topology.grid(rows, cols), rows * cols, edges


@st.composite
def lines(draw):
    n = draw(st.integers(1, 10))
    return Topology.line(n), n, [(i, i + 1) for i in range(n - 1)]


@st.composite
def complete(draw):
    n = draw(st.integers(1, 8))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Topology.fully_connected(n), n, edges


@st.composite
def rings_with_chord(draw):
    """A cycle plus one chord: connected, not a lattice, several shortest
    paths between far sites."""
    n = draw(st.integers(4, 10))
    chord = (0, draw(st.integers(2, n - 2)))
    edges = [(i, (i + 1) % n) for i in range(n)] + [chord]
    return Topology.from_edges(n, edges, name="ring-chord"), n, edges


@st.composite
def random_connected(draw):
    """A random spanning tree plus random extra edges (maybe duplicated)."""
    n = draw(st.integers(1, 9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda pair: pair[0] != pair[1])
        edges += draw(st.lists(extra, max_size=2 * n))
    return Topology.from_edges(n, edges), n, edges


TOPOLOGIES = st.one_of(grids(), lines(), complete(), rings_with_chord(),
                       random_connected())


def reference_adjacency(n, edges):
    adjacency = [set() for _ in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def reference_distances(adjacency, source):
    distance = {source: 0}
    queue = deque([source])
    while queue:
        site = queue.popleft()
        for other in adjacency[site]:
            if other not in distance:
                distance[other] = distance[site] + 1
                queue.append(other)
    return distance


class TestTopologyMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(TOPOLOGIES)
    def test_queries_match_bfs_over_edge_list(self, case):
        topology, n, edges = case
        adjacency = reference_adjacency(n, edges)
        assert topology.num_sites == n
        num_edges = len({tuple(sorted(edge)) for edge in edges})
        assert topology.is_fully_connected == (num_edges == n * (n - 1) // 2)
        for a in range(n):
            distances = reference_distances(adjacency, a)
            assert topology.neighbors(a) == tuple(sorted(adjacency[a]))
            for b in range(n):
                assert topology.distance(a, b) == distances[b]
                assert topology.are_adjacent(a, b) == (
                    a == b or b in adjacency[a])

    @settings(max_examples=60, deadline=None)
    @given(TOPOLOGIES, st.data())
    def test_shortest_path_is_an_adjacent_walk(self, case, data):
        topology, n, edges = case
        adjacency = reference_adjacency(n, edges)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        path = topology.shortest_path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == topology.distance(a, b) + 1
        for here, there in zip(path, path[1:]):
            assert there in adjacency[here]

    @settings(max_examples=40, deadline=None)
    @given(TOPOLOGIES, st.sampled_from([-1, -7, 0, 3]))
    def test_out_of_range_sites_raise(self, case, past_end):
        topology, n, _edges = case
        bad = n + past_end if past_end >= 0 else past_end
        with pytest.raises(ArchitectureError):
            topology.distance(bad, 0)
        with pytest.raises(ArchitectureError):
            topology.distance(0, bad)
        with pytest.raises(ArchitectureError):
            topology.coordinate(bad)
        with pytest.raises(ArchitectureError):
            topology.neighbors(bad)

    def test_grid_shortest_path_is_row_then_column(self):
        grid = Topology.grid(3, 4)
        assert grid.shortest_path(0, 11) == [0, 1, 2, 3, 7, 11]
        assert grid.shortest_path(11, 0) == [11, 10, 9, 8, 4, 0]
        assert grid.shortest_path(9, 1) == [9, 5, 1]

    def test_is_grid_and_shape(self):
        assert Topology.grid(3, 4).is_grid
        assert Topology.grid(3, 4).grid_shape == (3, 4)
        assert Topology.line(5).grid_shape == (1, 5)
        assert not Topology.fully_connected(4).is_grid
        assert not Topology.from_edges(3, [(0, 1), (1, 2)]).is_grid
        with pytest.raises(ArchitectureError):
            Topology.fully_connected(4).grid_shape

    def test_disconnected_edge_list_is_rejected(self):
        with pytest.raises(ArchitectureError):
            Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ArchitectureError):
            Topology.from_edges(3, [(0, 1)])

    def test_edge_outside_site_range_is_rejected(self):
        with pytest.raises(ArchitectureError):
            Topology.from_edges(3, [(0, 1), (1, 3)])
        with pytest.raises(ArchitectureError):
            Topology.from_edges(0, [])

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def test_route_vertices_are_the_route_segments(self, start, end):
        expected = {start, end}
        for a, b in manhattan_route(start, end):
            expected.update((a, b))
        assert route_vertices(start, end) == frozenset(expected)


# ----------------------------------------------------------------------
# Free-site searches
# ----------------------------------------------------------------------
def reference_ring_search(topology, occupied, anchors, limit):
    """Walk every coordinate of each ring, on the grid or not."""
    coords = [topology.coordinate(site) for site in anchors]
    center_row = int(round(sum(r for r, _ in coords) / len(coords)))
    center_col = int(round(sum(c for _, c in coords) / len(coords)))
    rows, cols = topology.grid_shape
    found = []
    radius = 0
    while len(found) < limit and radius <= 2 * max(rows, cols):
        if radius == 0:
            ring = [(center_row, center_col)]
        else:
            ring = []
            for offset in range(radius):
                ring += [(center_row - radius + offset, center_col + offset),
                         (center_row + offset, center_col + radius - offset),
                         (center_row + radius - offset, center_col - offset),
                         (center_row - offset, center_col - radius + offset)]
        for row, col in ring:
            site = row * cols + col
            if 0 <= row < rows and 0 <= col < cols and site not in occupied:
                found.append(site)
        radius += 1
    return found[:limit]


class TestFreeSites:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_ring_search_matches_coordinate_walk(self, rows, cols, data):
        topology = Topology.grid(rows, cols)
        n = rows * cols
        occupied = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        anchors = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=4))
        limit = data.draw(st.integers(1, n + 2))
        layout = Layout(topology)
        for virtual, site in enumerate(sorted(occupied)):
            layout.place(virtual, site)
        expected = reference_ring_search(topology, occupied, anchors, limit)
        assert layout.nearest_free_sites(anchors, limit=limit) == (
            expected or sorted(
                (site for site in range(n) if site not in occupied),
                key=lambda site: sum(topology.distance(site, anchor)
                                     for anchor in anchors))[:limit])

    def test_swap_into_empty_site_frees_the_old_site(self):
        layout = Layout(Topology.grid(2, 2))
        layout.place(0, 0)
        layout.place(1, 1)
        assert layout.first_free_site() == 2
        layout.swap(0, 2)  # qubit 0 moves onto empty site 2
        assert layout.site_of(0) == 2
        assert layout.first_free_site() == 0
        assert layout.free_sites() == (0, 3)
        assert layout.nearest_free_sites([2], limit=4) == [0, 3]
        assert layout.nearest_free_sites([], limit=1) == [0]

    def test_first_free_site_none_when_full(self):
        layout = Layout(Topology.line(2))
        layout.place(0, 0)
        layout.place(1, 1)
        assert layout.first_free_site() is None
        assert layout.free_sites() == ()

    def test_lifo_reuses_a_site_freed_by_a_swap(self):
        scheduler = GateScheduler(NISQMachine.grid(2, 2))
        scheduler.register_qubit(0, 0)
        scheduler.register_qubit(1, 1)
        scheduler.layout.swap(0, 2)
        created = []

        def create_qubit(site):
            created.append(site)
            scheduler.register_qubit(10 + len(created), site)
            return 10 + len(created)

        LifoAllocation().allocate(AllocationRequest(
            count=2, interacting_qubits=(), heap=AncillaHeap(),
            scheduler=scheduler, live_qubits=(), create_qubit=create_qubit))
        assert created == [0, 3]
