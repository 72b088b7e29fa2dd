"""Virtual-to-physical qubit layout.

The compiler works with *virtual* qubit identifiers (one per allocated
machine qubit); the :class:`Layout` records which physical site each one
occupies.  Swap chains move virtual qubits between sites; reclaimed qubits
keep their site (a physical qubit reset to |0> does not move), which is
exactly why locality-aware allocation pays off.

A site is *free* while no virtual qubit occupies it.  Sites are not only
consumed: a swap that moves a qubit onto an empty neighbour frees the
qubit's old site again, so every free-site query scans the current
occupancy rather than a high-water mark.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ArchitectureError, ResourceExhaustedError
from repro.arch.topology import Topology


class Layout:
    """Bidirectional virtual-qubit <-> physical-site mapping.

    Free-site queries always reflect the current occupancy, including
    sites a swap has just vacated.  On lattice topologies
    (:attr:`Topology.is_grid`) the nearest-free-site search walks Manhattan
    rings in site-index arithmetic; on any other topology it ranks every
    free site by total distance to the anchors.

    Args:
        topology: The machine topology whose sites are being assigned.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._site_of: Dict[int, int] = {}
        self._virtual_at: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The underlying topology."""
        return self._topology

    @property
    def num_placed(self) -> int:
        """Number of virtual qubits currently placed."""
        return len(self._site_of)

    @property
    def num_free_sites(self) -> int:
        """Number of sites no virtual qubit occupies."""
        return self._topology.num_sites - len(self._virtual_at)

    def site_of(self, virtual: int) -> int:
        """Physical site of virtual qubit ``virtual``."""
        try:
            return self._site_of[virtual]
        except KeyError:
            raise ArchitectureError(f"virtual qubit {virtual} is not placed") from None

    def virtual_at(self, site: int) -> Optional[int]:
        """Virtual qubit occupying ``site`` or None if the site is empty."""
        return self._virtual_at.get(site)

    def is_placed(self, virtual: int) -> bool:
        """True when ``virtual`` currently occupies a site."""
        return virtual in self._site_of

    def free_sites(self) -> Tuple[int, ...]:
        """All sites no virtual qubit occupies, ascending."""
        return tuple(self._iter_free_sites())

    def first_free_site(self) -> Optional[int]:
        """The lowest-numbered free site, or None if every site is taken.

        Stops at the first free site instead of listing them all.
        """
        return next(self._iter_free_sites(), None)

    def _iter_free_sites(self) -> Iterable[int]:
        occupied = self._virtual_at
        return (site for site in range(self._topology.num_sites)
                if site not in occupied)

    def occupied_sites(self) -> Tuple[int, ...]:
        """Sites currently holding a virtual qubit."""
        return tuple(sorted(self._virtual_at))

    # ------------------------------------------------------------------
    def place(self, virtual: int, site: int) -> None:
        """Assign ``virtual`` to an empty ``site``.

        Raises:
            ArchitectureError: If the qubit is already placed or the site
                is occupied.
        """
        if virtual in self._site_of:
            raise ArchitectureError(f"virtual qubit {virtual} is already placed")
        if site in self._virtual_at:
            raise ArchitectureError(f"site {site} is already occupied")
        self._topology.check_site(site)
        self._site_of[virtual] = site
        self._virtual_at[site] = virtual

    def nearest_free_site(self, anchor_sites: Sequence[int]) -> int:
        """The free site closest (total distance) to ``anchor_sites``.

        With no anchors, returns the lowest-numbered free site.

        Raises:
            ResourceExhaustedError: If every site is occupied.
        """
        candidates = self.nearest_free_sites(anchor_sites, limit=1)
        if not candidates:
            raise ResourceExhaustedError(
                f"machine {self._topology.name} has no free qubit sites"
            )
        return candidates[0]

    def nearest_free_sites(self, anchor_sites: Sequence[int],
                           limit: int = 32) -> List[int]:
        """Up to ``limit`` free sites, closest to ``anchor_sites`` first.

        On lattice topologies the search expands rings around the anchor
        centroid, so it stays fast even on multi-thousand-site machines;
        elsewhere free sites are ranked by total distance to the anchors
        (ties keep ascending site order).  With no anchors the
        lowest-numbered free sites are returned.
        """
        if limit < 1:
            return []
        if not anchor_sites:
            return list(islice(self._iter_free_sites(), limit))
        if self._topology.is_grid:
            found = self._ring_search(anchor_sites, limit)
            if found:
                return found
        distance = self._topology.distance
        free = list(self._iter_free_sites())
        free.sort(key=lambda site: sum([
            distance(site, anchor) for anchor in anchor_sites]))
        return free[:limit]

    def _ring_search(self, anchor_sites: Sequence[int], limit: int) -> List[int]:
        """Expand Manhattan rings around the anchor centroid on a grid.

        Ring ``radius`` visits, for each offset ``0..radius-1`` in turn, one
        point on each of its four sides: top to right, right to bottom,
        bottom to left, left to top.  Each side is the site sequence
        ``base + step * offset``, and the offsets where it lies on the grid
        follow from the centre's row and column, so off-grid points are
        never visited.
        """
        topology = self._topology
        nrows, ncols = topology.grid_shape
        occupied = self._virtual_at
        coords = [topology.coordinate(site) for site in anchor_sites]
        # A rounded mean of grid coordinates is itself on the grid.
        center_row = int(round(sum(r for r, _ in coords) / len(coords)))
        center_col = int(round(sum(c for _, c in coords) / len(coords)))
        center = center_row * ncols + center_col
        found: List[int] = [] if center in occupied else [center]
        down_right = ncols + 1
        down_left = ncols - 1
        # The ring radius is bounded by the grid diameter; stop as soon as
        # enough free sites are found or the whole grid has been covered.
        radius = 1
        while len(found) < limit and radius <= 2 * max(nrows, ncols):
            last = radius - 1
            sides = (  # (first offset, last offset, base, step) on the grid
                (max(0, radius - center_row), min(last, ncols - 1 - center_col),
                 center - radius * ncols, down_right),
                (max(0, center_col + radius - ncols + 1),
                 min(last, nrows - 1 - center_row), center + radius, down_left),
                (max(0, center_row + radius - nrows + 1), min(last, center_col),
                 center + radius * ncols, -down_right),
                (max(0, radius - center_col), min(last, center_row),
                 center - radius, -down_left),
            )
            hits = []
            for side, (low, high, base, step) in enumerate(sides):
                if low <= high:
                    hits += [(offset, side, site)
                             for offset in range(low, high + 1)
                             if (site := base + step * offset) not in occupied]
            if hits:
                hits.sort()
                found.extend(hit[2] for hit in hits[:limit - len(found)])
            radius += 1
        return found

    def swap(self, site_a: int, site_b: int) -> None:
        """Exchange the occupants of two sites (either may be empty)."""
        occupant_a = self._virtual_at.pop(site_a, None)
        occupant_b = self._virtual_at.pop(site_b, None)
        if occupant_a is not None:
            self._virtual_at[site_b] = occupant_a
            self._site_of[occupant_a] = site_b
        if occupant_b is not None:
            self._virtual_at[site_a] = occupant_b
            self._site_of[occupant_b] = site_a

    def area_spread(self, virtual_qubits: Iterable[int]) -> float:
        """Mean pairwise-to-centroid distance of the given qubits' sites.

        Used by the allocation heuristic as an estimate of how spread out
        the active working set is (the "area expansion" consideration).
        """
        sites = [self._site_of[v] for v in virtual_qubits if v in self._site_of]
        if len(sites) < 2:
            return 0.0
        coords = [self._topology.coordinate(s) for s in sites]
        mean_row = sum(r for r, _ in coords) / len(coords)
        mean_col = sum(c for _, c in coords) / len(coords)
        return sum(
            abs(r - mean_row) + abs(c - mean_col) for r, c in coords
        ) / len(coords)

    def __repr__(self) -> str:
        return (
            f"Layout(placed={self.num_placed}, "
            f"free_sites={self.num_free_sites}, topology={self._topology.name})"
        )
