"""Physical qubit topologies (coupling maps).

The paper evaluates NISQ machines with 2-D lattice nearest-neighbour
connectivity, an ideal fully-connected machine (Figure 5), and
fault-tolerant machines whose logical qubits sit on a 2-D grid with
routing channels.  A :class:`Topology` provides sites, adjacency,
coordinates and hop distances used by the router and by the
locality-aware allocation heuristic.

Distances are the compiler's hottest query, so a topology is stored as
flat per-site tuples (rows, columns, sorted neighbours) built once in the
constructor, with no graph object behind it: lattices answer
``distance`` with the Manhattan formula, fully connected machines are a
flag rather than ``n^2`` edges, and any other coupling map runs one
breadth-first search per source site, cached.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ArchitectureError

Coordinate = Tuple[int, int]


class Topology:
    """A coupling map over physical sites ``0..num_sites-1``.

    Use the constructors (:meth:`grid`, :meth:`line`,
    :meth:`square_grid_for`, :meth:`fully_connected`, :meth:`from_edges`)
    rather than calling this directly.

    Args:
        num_sites: Number of sites.
        edges: Undirected couplings as site pairs.  Duplicates and
            self-loops are ignored.
        coordinates: Optional map from site to (row, column) used for
            geometric estimates and braid routing; sites without one sit
            at ``(0, site)``.
        name: Human-readable topology name.
        fully_connected: Couple every pair of sites (``edges`` is ignored).
        grid_cols: Mark the sites as a row-major lattice with this many
            columns: site ``s`` sits at ``divmod(s, grid_cols)``, and
            ``edges`` must be its nearest-neighbour couplings.

    Raises:
        ArchitectureError: For an empty site set, an edge naming a site
            outside ``0..num_sites-1``, or a disconnected coupling map.
    """

    def __init__(
        self,
        num_sites: int,
        edges: Iterable[Tuple[int, int]] = (),
        coordinates: Optional[Mapping[int, Coordinate]] = None,
        name: str = "custom",
        *,
        fully_connected: bool = False,
        grid_cols: Optional[int] = None,
    ) -> None:
        if num_sites < 1:
            raise ArchitectureError("topology must contain at least one site")
        n = num_sites
        self.name = name
        self._num_sites = n
        self._full = fully_connected
        self._grid_cols = grid_cols
        if grid_cols is not None:
            coords = tuple(divmod(site, grid_cols) for site in range(n))
        else:
            given = coordinates or {}
            coords = tuple(given.get(site, (0, site)) for site in range(n))
        self._coords: Tuple[Coordinate, ...] = coords
        self._rows: Tuple[int, ...] = tuple(row for row, _ in coords)
        self._cols: Tuple[int, ...] = tuple(col for _, col in coords)
        # The last site of a row-major lattice is its far corner.
        self._grid_rows = coords[-1][0] + 1 if grid_cols is not None else None
        self._site_at: Dict[Coordinate, int] = {
            coord: site for site, coord in enumerate(coords)}
        # Per-source BFS distances, filled lazily (avoids an O(N^2) table
        # for the multi-thousand-site machines of Figures 9 and 10).
        self._distance_cache: Dict[int, List[int]] = {}

        if fully_connected:
            self._neighbors: Tuple[Tuple[int, ...], ...] = ()
            self._is_fully_connected = True
            return
        adjacency: List[set] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ArchitectureError(
                    f"edge ({a}, {b}) names a site outside 0..{n - 1}")
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        self._neighbors = tuple(tuple(sorted(sites)) for sites in adjacency)
        num_edges = sum(len(sites) for sites in self._neighbors) // 2
        self._is_fully_connected = num_edges == n * (n - 1) // 2
        if grid_cols is None and -1 in self._bfs(0)[1]:
            raise ArchitectureError("topology must be connected")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def line(cls, num_sites: int) -> "Topology":
        """A 1-D chain of ``num_sites`` qubits."""
        if num_sites < 1:
            raise ArchitectureError("num_sites must be positive")
        edges = [(site, site + 1) for site in range(num_sites - 1)]
        return cls(num_sites, edges, name=f"line-{num_sites}",
                   grid_cols=num_sites)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        """A 2-D lattice with nearest-neighbour connectivity."""
        if rows < 1 or cols < 1:
            raise ArchitectureError("grid dimensions must be positive")
        edges = []
        for site in range(rows * cols):
            if site % cols:
                edges.append((site, site - 1))
            if site >= cols:
                edges.append((site, site - cols))
        return cls(rows * cols, edges, name=f"grid-{rows}x{cols}",
                   grid_cols=cols)

    @classmethod
    def square_grid_for(cls, num_qubits: int) -> "Topology":
        """Smallest near-square lattice with at least ``num_qubits`` sites."""
        if num_qubits < 1:
            raise ArchitectureError("num_qubits must be positive")
        side = math.isqrt(num_qubits)
        if side * side < num_qubits:
            side += 1
        rows = side
        cols = side
        while (rows - 1) * cols >= num_qubits:
            rows -= 1
        return cls.grid(rows, cols)

    @classmethod
    def fully_connected(cls, num_sites: int) -> "Topology":
        """All-to-all connectivity (no routing cost)."""
        if num_sites < 1:
            raise ArchitectureError("num_sites must be positive")
        side = max(1, math.isqrt(num_sites))
        coords = {site: divmod(site, side) for site in range(num_sites)}
        return cls(num_sites, coordinates=coords, name=f"full-{num_sites}",
                   fully_connected=True)

    @classmethod
    def from_edges(cls, num_sites: int, edges: Iterable[Tuple[int, int]],
                   name: str = "custom") -> "Topology":
        """Build a topology from an explicit edge list."""
        return cls(num_sites, edges, name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_sites(self) -> int:
        """Number of physical sites."""
        return self._num_sites

    @property
    def is_grid(self) -> bool:
        """True for row-major lattices (``grid``, ``line``): site ``s``
        sits at ``divmod(s, ncols)`` and hop distance is Manhattan."""
        return self._grid_cols is not None

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """``(rows, cols)`` of a lattice topology.

        Raises:
            ArchitectureError: If the topology is not a lattice.
        """
        if self._grid_cols is None:
            raise ArchitectureError(f"{self.name} is not a lattice topology")
        return self._grid_rows, self._grid_cols

    @property
    def is_fully_connected(self) -> bool:
        """True when every pair of sites is directly coupled."""
        return self._is_fully_connected

    def check_site(self, site: int) -> None:
        """Raise :class:`ArchitectureError` unless ``site`` is a site index.

        The hot queries test the range inline and call this only to raise.
        """
        if not 0 <= site < self._num_sites:
            raise ArchitectureError(
                f"site {site} out of range for {self.name} "
                f"({self._num_sites} sites)"
            )

    def coordinate(self, site: int) -> Coordinate:
        """(row, column) coordinate of ``site``."""
        if not 0 <= site < self._num_sites:
            self.check_site(site)
        return self._coords[site]

    def neighbors(self, site: int) -> Tuple[int, ...]:
        """Sites directly coupled to ``site``, ascending."""
        if not 0 <= site < self._num_sites:
            self.check_site(site)
        if self._full:
            return tuple(range(site)) + tuple(range(site + 1, self._num_sites))
        return self._neighbors[site]

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are directly coupled (or identical)."""
        if a == b:
            return True
        n = self._num_sites
        if not (0 <= a < n and 0 <= b < n):
            return False
        return self._full or b in self._neighbors[a]

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two sites (0 for the same site)."""
        n = self._num_sites
        if not 0 <= a < n:
            self.check_site(a)
        if not 0 <= b < n:
            self.check_site(b)
        if a == b:
            return 0
        if self._grid_cols is not None:
            rows = self._rows
            cols = self._cols
            return abs(rows[a] - rows[b]) + abs(cols[a] - cols[b])
        if self._full:
            return 1
        cached = self._distance_cache.get(a)
        if cached is None:
            cached = self._distance_cache[a] = self._bfs(a)[1]
        return cached[b]

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest site path from ``a`` to ``b`` inclusive.

        On a lattice the path is L-shaped: along the row first, then along
        the column.  Elsewhere it is the breadth-first path that visits
        neighbours in ascending order.
        """
        n = self._num_sites
        if not 0 <= a < n:
            self.check_site(a)
        if not 0 <= b < n:
            self.check_site(b)
        if a == b:
            return [a]
        if self._full:
            return [a, b]
        cols = self._grid_cols
        if cols is not None:
            col_a = self._cols[a]
            col_b = self._cols[b]
            col_step = 1 if col_b > col_a else -1
            row_step = cols if self._rows[b] > self._rows[a] else -cols
            path = list(range(a, a + col_b - col_a + col_step, col_step))
            path.extend(range(path[-1] + row_step, b + row_step, row_step))
            return path
        parent = self._bfs(a, target=b)[0]
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def manhattan_distance(self, a: int, b: int) -> int:
        """Coordinate (Manhattan) distance between two sites."""
        ra, ca = self.coordinate(a)
        rb, cb = self.coordinate(b)
        return abs(ra - rb) + abs(ca - cb)

    def centroid_site(self, sites: Sequence[int]) -> int:
        """Site closest to the coordinate centroid of ``sites``.

        Returns site 0 when ``sites`` is empty.
        """
        if not sites:
            return 0
        n = self._num_sites
        for site in sites:
            if not 0 <= site < n:
                self.check_site(site)
        rows = self._rows
        cols = self._cols
        target_row = sum([rows[s] for s in sites]) / len(sites)
        target_col = sum([cols[s] for s in sites]) / len(sites)
        site = self._site_at.get((int(round(target_row)), int(round(target_col))))
        if site is not None:
            return site
        best_site = sites[0]
        best_cost = float("inf")
        for site, (row, col) in enumerate(self._coords):
            cost = abs(row - target_row) + abs(col - target_col)
            if cost < best_cost:
                best_cost = cost
                best_site = site
        return best_site

    # ------------------------------------------------------------------
    def _bfs(self, source: int, target: Optional[int] = None
             ) -> Tuple[List[int], List[int]]:
        """Breadth-first search from ``source`` over the stored couplings.

        Returns ``(parent, distance)`` lists indexed by site, -1 where a
        site was not reached.  Neighbours are visited in ascending order;
        the search stops once ``target`` is dequeued.
        """
        n = self._num_sites
        neighbors = self._neighbors
        parent = [-1] * n
        distance = [-1] * n
        parent[source] = source
        distance[source] = 0
        queue = deque([source])
        while queue:
            site = queue.popleft()
            if site == target:
                break
            hops = distance[site] + 1
            for other in neighbors[site]:
                if distance[other] < 0:
                    distance[other] = hops
                    parent[other] = site
                    queue.append(other)
        return parent, distance

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, sites={self.num_sites})"
