#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/aabb.h"
#include "graph/spatial_graph.h"
#include "storage/object.h"

namespace scout {

/// Work counters produced while building / traversing graphs. The engine
/// converts these into simulated CPU time through a CostModel, and tests
/// use them to verify algorithmic behaviour (e.g. sparse construction
/// doing strictly less work). The counters are part of the deterministic
/// simulation contract: for identical inputs they must not change across
/// implementations (graph_stats_guard_test pins them), so `edges_created`
/// keeps counting every considered pair even though the builders now
/// dedup edges during the sweep instead of afterwards.
struct GraphBuildStats {
  uint64_t objects_hashed = 0;   ///< Objects mapped to grid cells.
  uint64_t cell_inserts = 0;     ///< (object, cell) insertions.
  uint64_t pair_comparisons = 0; ///< Pairwise connections considered.
  uint64_t edges_created = 0;    ///< Edge creations (pre-dedup count).

  GraphBuildStats& operator+=(const GraphBuildStats& o) {
    objects_hashed += o.objects_hashed;
    cell_inserts += o.cell_inserts;
    pair_comparisons += o.pair_comparisons;
    edges_created += o.edges_created;
    return *this;
  }
};

/// Explicit adjacency of a mesh dataset: object id -> adjacent object
/// ids. Datasets with an underlying graph (polygon meshes, paper §4.2)
/// provide this so the result graph can be read off directly instead of
/// grid hashing.
// scout-lint: allow(det-unordered-container): lookup-only mesh adjacency;
// consumers iterate result objects (deterministic order), never this map.
using AdjacencyMap = std::unordered_map<ObjectId, std::vector<ObjectId>>;

/// Reference to an object participating in graph construction.
struct GraphInput {
  const SpatialObject* object = nullptr;
  PageId page = kInvalidPageId;
};

/// Builds the approximate graph by spatial grid hashing (paper §4.2,
/// Figure 4): the bounding box `bounds` (normally the query region's
/// bounds) is partitioned into ~`total_cells` equi-volume cells; every
/// object's line simplification is mapped to the cells it traverses and
/// objects sharing a cell are connected. Returns stats for cost
/// accounting. The returned graph is finalized (CSR, read-only).
///
/// Runs on the calling thread over per-thread scratch buffers, by one of
/// two routes:
///  - radix: on a grid of at most 2^20 cells whose cell id and vertex id
///    fit one 32-bit key together, the DDA walk packs every
///    (cell, vertex) pair into a key and a stable LSD radix sort over
///    the cell bytes groups the keys into per-cell runs;
///  - cell table: every other grid stages the pairs in an arena and
///    groups them through an open-addressed table of occupied cells.
/// The routes sweep cells in different orders, which no output can
/// observe: the stats counters are order-independent sums and
/// SpatialGraph::Finalize sorts and dedups the edge buffer. The graph
/// CSR and every stats counter equal BuildGraphGridHashSerial's
/// (graph_route_differential_test pins both routes).
///
/// The resolution knob reproduces Figure 13(e): too coarse creates excess
/// edges (false structures), too fine leaves the graph disconnected.
GraphBuildStats BuildGraphGridHash(std::span<const GraphInput> inputs,
                                   const Aabb& bounds, int64_t total_cells,
                                   SpatialGraph* graph);

/// Reference grid-hash implementation, kept as the differential oracle
/// BuildGraphGridHash is diffed against. No scratch reuse and one route
/// — the shape that is easiest to audit against the paper's Figure 4
/// description.
GraphBuildStats BuildGraphGridHashSerial(std::span<const GraphInput> inputs,
                                         const Aabb& bounds,
                                         int64_t total_cells,
                                         SpatialGraph* graph);

/// Reference O(n^2) construction connecting objects whose line segments
/// pass within `epsilon` of each other. Used by tests as ground truth for
/// the grid-hash approximation and by the brute-force ablation.
GraphBuildStats BuildGraphBruteForce(std::span<const GraphInput> inputs,
                                     double epsilon, SpatialGraph* graph);

/// Builds the graph from explicit adjacency information (the polygon-mesh
/// case of §4.2 where the dataset already is a graph). `adjacency` holds
/// pairs of ObjectIds; objects absent from `inputs` are ignored.
GraphBuildStats BuildGraphExplicit(
    std::span<const GraphInput> inputs,
    std::span<const std::pair<ObjectId, ObjectId>> adjacency,
    SpatialGraph* graph);

}  // namespace scout

