"""Partitioning strategies for the parallel RDF store.

The unit of placement is the *subject document*: all triples sharing a
subject are routed together, so star-shaped queries never cross partitions.
Spatially-aware strategies route by the subject's spatio-temporal key
(see :meth:`repro.rdf.transform.RdfTransformer.st_key`); subjects without
a key (entity metadata, complex events) fall back to hashing.

Strategies:

- :class:`HashPartitioner` — perfect balance, zero locality (baseline).
- :class:`GridPartitioner` — contiguous runs of grid cells per partition;
  good locality, skew-prone under non-uniform traffic.
- :class:`HilbertPartitioner` — cells ordered along a Hilbert curve and
  split into equal-count ranges from a sample; locality *and* balance.
"""

from __future__ import annotations

import bisect

from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.geo.hilbert import hilbert_xy2d


class Partitioner:
    """Strategy interface: route subjects and prune partitions."""

    #: Whether the strategy wants to route keyed subjects by their
    #: spatio-temporal key. Hash sets this False: it routes everything by
    #: subject id, which is what gives it its perfect balance.
    uses_spatial_key: bool = True

    def __init__(self, n_partitions: int) -> None:
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        self.n_partitions = n_partitions

    def partition_for_key(self, st_key: int) -> int:
        """Partition of a subject with a spatio-temporal key."""
        raise NotImplementedError

    def partition_for_subject(self, subject_id: int) -> int:
        """Fallback partition for subjects without a key."""
        return subject_id % self.n_partitions

    def partitions_for_bbox(self, bbox: BBox) -> set[int]:
        """Partitions that may hold position subjects inside ``bbox``.

        Hash has no locality, so it must return every partition; spatial
        strategies return the subset covering the box — this is the pruning
        power experiment E4 measures.
        """
        return set(range(self.n_partitions))

    @property
    def name(self) -> str:
        """Strategy name used in benchmark tables."""
        return type(self).__name__.removesuffix("Partitioner").lower()


class HashPartitioner(Partitioner):
    """Route everything by subject id hash; ignore geometry entirely."""

    uses_spatial_key = False

    def partition_for_key(self, st_key: int) -> int:
        # Never used for routing (uses_spatial_key is False); kept for the
        # interface so pruning experiments can call it uniformly.
        return (st_key * 2654435761) % self.n_partitions


class GridPartitioner(Partitioner):
    """Split the grid's cells into ``n`` contiguous row-major runs."""

    def __init__(self, grid: GeoGrid, n_partitions: int) -> None:
        super().__init__(n_partitions)
        self.grid = grid
        cells = grid.n_cells
        if n_partitions > cells:
            raise ValueError("more partitions than grid cells")
        self._cells_per_part = cells / n_partitions

    def _partition_of_cell(self, cell_id: int) -> int:
        return min(int(cell_id / self._cells_per_part), self.n_partitions - 1)

    def partition_for_key(self, st_key: int) -> int:
        from repro.rdf.transform import RdfTransformer

        cell_id, __ = RdfTransformer.decode_st_key(st_key)
        return self._partition_of_cell(cell_id % self.grid.n_cells)

    def partitions_for_bbox(self, bbox: BBox) -> set[int]:
        out: set[int] = set()
        for ix, iy in self.grid.cells_intersecting(bbox):
            out.add(self._partition_of_cell(iy * self.grid.nx + ix))
        return out


class QuadTreePartitioner(Partitioner):
    """Load-adaptive spatial partitioning via a quadtree over a sample.

    A quadtree is grown over the sampled traffic (leaf capacity set so
    the tree produces a few leaves per partition); leaves are then
    ordered along a Hilbert curve of their centres and cut into
    contiguous runs of roughly equal sample weight. The tree adapts the
    *resolution* to the load (hotspots split finer, empty ocean stays
    coarse) while the curve order keeps each partition spatially
    contiguous — balance and pruning together, where greedy bin-packing
    of leaves would buy balance at the cost of all locality.

    Args:
        grid: The st-key minting grid (keys decode through it).
        n_partitions: Number of partitions.
        sample_keys: Sampled st-keys representing the load distribution;
            an empty sample degenerates to one leaf (all → partition 0).
        leaves_per_partition: Target quadtree granularity.
    """

    def __init__(
        self,
        grid: GeoGrid,
        n_partitions: int,
        sample_keys: list[int] | None = None,
        leaves_per_partition: int = 8,
    ) -> None:
        super().__init__(n_partitions)
        self.grid = grid
        sample_keys = sample_keys or []
        positions = [self._key_position(key) for key in sample_keys]
        capacity = max(1, len(positions) // (n_partitions * leaves_per_partition))
        from repro.geo.quadtree import QuadTree

        self._tree = QuadTree(grid.bbox, capacity=capacity, max_depth=10)
        for lon, lat in positions:
            self._tree.insert(lon, lat)
        self._leaf_partition: dict[BBox, int] = {}
        leaves = list(self._tree.leaves())
        # Order leaves spatially along a Hilbert curve of their centres,
        # then cut the sequence into n contiguous runs of ~equal weight.
        order = 8
        side = 1 << order

        def curve_position(leaf_bbox: BBox) -> int:
            cx, cy = leaf_bbox.center
            ix = min(side - 1, int((cx - grid.bbox.min_lon) / grid.bbox.width * side))
            iy = min(side - 1, int((cy - grid.bbox.min_lat) / grid.bbox.height * side))
            return hilbert_xy2d(order, max(0, ix), max(0, iy))

        leaves.sort(key=lambda lc: curve_position(lc[0]))
        total_weight = sum(max(count, 1) for __, count in leaves)
        target_weight = total_weight / n_partitions
        cumulative = 0.0
        for leaf_bbox, count in leaves:
            partition = min(int(cumulative / target_weight), n_partitions - 1)
            self._leaf_partition[leaf_bbox] = partition
            cumulative += max(count, 1)

    def _key_position(self, st_key: int) -> tuple[float, float]:
        from repro.rdf.transform import RdfTransformer

        cell_id, __ = RdfTransformer.decode_st_key(st_key)
        cell_id %= self.grid.n_cells
        ix = cell_id % self.grid.nx
        iy = cell_id // self.grid.nx
        return self.grid.cell_bbox(ix, iy).center

    def partition_for_key(self, st_key: int) -> int:
        lon, lat = self._key_position(st_key)
        leaf = self._tree.leaf_bbox(lon, lat)
        return self._leaf_partition.get(leaf, 0)

    def partitions_for_bbox(self, bbox: BBox) -> set[int]:
        out: set[int] = set()
        for leaf_bbox, partition in self._leaf_partition.items():
            if leaf_bbox.intersects(bbox):
                out.add(partition)
        return out or set(range(self.n_partitions))


class HilbertPartitioner(Partitioner):
    """Order cells along a Hilbert curve, split into balanced ranges.

    Args:
        grid: The spatial grid the st-keys were minted against. The grid
            must be square with a power-of-two side for the curve mapping;
            other grids are embedded into the smallest covering curve.
        n_partitions: Number of ranges.
        sample_keys: Optional sample of st-keys; when given, range
            boundaries are the sample's Hilbert-position quantiles so
            partitions balance under spatial skew. Without a sample the
            curve is split into equal-length ranges.
    """

    def __init__(
        self,
        grid: GeoGrid,
        n_partitions: int,
        sample_keys: list[int] | None = None,
    ) -> None:
        super().__init__(n_partitions)
        self.grid = grid
        self._order = self._curve_order(max(grid.nx, grid.ny))
        side = 1 << self._order
        self._side = side
        total = side * side
        if sample_keys:
            positions = sorted(self._key_to_curve(k) for k in sample_keys)
            self._bounds = [
                positions[min(len(positions) - 1, (i + 1) * len(positions) // n_partitions)]
                for i in range(n_partitions - 1)
            ]
        else:
            self._bounds = [
                (i + 1) * total // n_partitions for i in range(n_partitions - 1)
            ]

    @staticmethod
    def _curve_order(side: int) -> int:
        order = 0
        while (1 << order) < side:
            order += 1
        return max(order, 1)

    def _cell_to_curve(self, cell_id: int) -> int:
        ix = cell_id % self.grid.nx
        iy = cell_id // self.grid.nx
        return hilbert_xy2d(self._order, ix, iy)

    def _key_to_curve(self, st_key: int) -> int:
        from repro.rdf.transform import RdfTransformer

        cell_id, __ = RdfTransformer.decode_st_key(st_key)
        return self._cell_to_curve(cell_id % self.grid.n_cells)

    def _partition_of_curve(self, position: int) -> int:
        return bisect.bisect_right(self._bounds, position)

    def partition_for_key(self, st_key: int) -> int:
        return self._partition_of_curve(self._key_to_curve(st_key))

    def partitions_for_bbox(self, bbox: BBox) -> set[int]:
        out: set[int] = set()
        for ix, iy in self.grid.cells_intersecting(bbox):
            position = hilbert_xy2d(self._order, ix, iy)
            out.add(self._partition_of_curve(position))
        return out
