/// Differential tests pinning both routes of BuildGraphGridHash to the
/// serial oracle: the GraphBuildStats counters and the finalized CSR
/// (offsets + neighbor runs, compared element for element via the
/// per-vertex spans) must be identical — the routes are performance
/// transforms, not semantic ones. Covers the radix route (a direct grid
/// whose packed (cell, vertex) key fits 32 bits) and the cell-table route
/// (more cells than the direct-grid cap, or a key wider than 32 bits).
/// Each shape asserts the route it reaches, so a grid-sizing change
/// cannot silently move a case to the other route.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "geom/grid.h"
#include "graph/graph_builder.h"
#include "testing/test_util.h"

namespace scout {
namespace {

using testing::MakeRandomObjects;

// The builder's direct-grid cap: the radix route needs at most this
// many cells.
constexpr int64_t kDirectGridCells = int64_t{1} << 20;

const Aabb kBounds(Vec3(0, 0, 0), Vec3(43, 43, 43));

std::vector<GraphInput> ToInputs(const std::vector<SpatialObject>& objects) {
  std::vector<GraphInput> inputs;
  inputs.reserve(objects.size());
  for (const SpatialObject& obj : objects) {
    inputs.push_back(GraphInput{&obj, static_cast<PageId>(obj.id / 8)});
  }
  return inputs;
}

// Bits of a packed (cell, vertex) key for `num_objects` objects on the
// grid the builder makes from `total_cells`.
uint32_t KeyBits(size_t num_objects, int64_t total_cells) {
  const UniformGrid grid = UniformGrid::WithTotalCells(kBounds, total_cells);
  return static_cast<uint32_t>(
      std::bit_width(static_cast<uint64_t>(grid.TotalCells() - 1)) +
      std::bit_width(static_cast<uint64_t>(num_objects - 1)));
}

int64_t GridCells(int64_t total_cells) {
  return UniformGrid::WithTotalCells(kBounds, total_cells).TotalCells();
}

void ExpectStatsEqual(const GraphBuildStats& a, const GraphBuildStats& b) {
  EXPECT_EQ(a.objects_hashed, b.objects_hashed);
  EXPECT_EQ(a.cell_inserts, b.cell_inserts);
  EXPECT_EQ(a.pair_comparisons, b.pair_comparisons);
  EXPECT_EQ(a.edges_created, b.edges_created);
}

void ExpectGraphsIdentical(const SpatialGraph& a, const SpatialGraph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    const GraphVertex& va = a.vertex(v);
    const GraphVertex& vb = b.vertex(v);
    EXPECT_EQ(va.object_id, vb.object_id) << "vertex " << v;
    EXPECT_EQ(va.page_id, vb.page_id) << "vertex " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()))
        << "vertex " << v;
  }
}

void DiffAgainstSerial(size_t num_objects, int64_t total_cells,
                       uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "objects=" << num_objects
                                    << " cells=" << total_cells
                                    << " seed=" << seed);
  const std::vector<SpatialObject> objects =
      MakeRandomObjects(num_objects, kBounds, seed);
  const std::vector<GraphInput> inputs = ToInputs(objects);

  SpatialGraph serial;
  const GraphBuildStats serial_stats =
      BuildGraphGridHashSerial(inputs, kBounds, total_cells, &serial);
  SpatialGraph built;
  const GraphBuildStats built_stats =
      BuildGraphGridHash(inputs, kBounds, total_cells, &built);
  ExpectStatsEqual(built_stats, serial_stats);
  ExpectGraphsIdentical(built, serial);
}

// Dense grid, recorder-row shape: the radix route.
TEST(GraphRouteDifferentialTest, DenseGridMatchesSerial) {
  ASSERT_LE(GridCells(32768), kDirectGridCells);
  ASSERT_LE(KeyBits(777, 32768), 32u);
  DiffAgainstSerial(/*num_objects=*/512, /*total_cells=*/32768, /*seed=*/3);
  DiffAgainstSerial(/*num_objects=*/777, /*total_cells=*/32768, /*seed=*/55);
}

// Coarse grid: many objects per cell, so the pair sweep dominates and
// duplicate edges (objects sharing several cells) are common.
TEST(GraphRouteDifferentialTest, CoarseGridMatchesSerial) {
  DiffAgainstSerial(/*num_objects=*/400, /*total_cells=*/512, /*seed=*/7);
}

// More cells than the direct-grid cap: the cell-table route.
TEST(GraphRouteDifferentialTest, SparseGridMatchesSerial) {
  ASSERT_GT(GridCells(int64_t{1} << 21), kDirectGridCells);
  DiffAgainstSerial(/*num_objects=*/300, /*total_cells=*/int64_t{1} << 21,
                    /*seed=*/11);
}

// A direct grid whose keys are wider than 32 bits: 81^3 = 531,441 cells
// (20 bits) and 5,000 objects (13 bits) take the cell-table route too.
TEST(GraphRouteDifferentialTest, WideKeyDirectGridMatchesSerial) {
  const int64_t cells = int64_t{1} << 19;
  ASSERT_LE(GridCells(cells), kDirectGridCells);
  ASSERT_GT(KeyBits(5000, cells), 32u);
  DiffAgainstSerial(/*num_objects=*/5000, cells, /*seed=*/13);
}

// Degenerate inputs: empty, a single object (a zero-bit vertex id), and
// a handful of objects.
TEST(GraphRouteDifferentialTest, DegenerateInputsMatchSerial) {
  DiffAgainstSerial(/*num_objects=*/0, /*total_cells=*/32768, /*seed=*/1);
  DiffAgainstSerial(/*num_objects=*/1, /*total_cells=*/32768, /*seed=*/2);
  DiffAgainstSerial(/*num_objects=*/5, /*total_cells=*/32768, /*seed=*/4);
}

}  // namespace
}  // namespace scout
