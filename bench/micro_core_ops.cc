/// google-benchmark microbenchmarks of the core operations underlying
/// SCOUT: Hilbert encoding, grid hashing (DDA cell walks), approximate
/// graph construction, R-tree / FLAT range queries and segment distance.

#include <benchmark/benchmark.h>

#include <bit>

#include "common/simd.h"
#include "geom/frustum.h"
#include "geom/grid.h"
#include "geom/hilbert.h"
#include "graph/graph_builder.h"
#include "graph/kmeans.h"
#include "graph/traversal.h"
#include "index/box_rtree.h"
#include "index/flat_index.h"
#include "index/rtree.h"
#include "storage/cache.h"
#include "testing_support.h"

namespace scout {
namespace {

void BM_HilbertEncode3(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  uint32_t x = 12345 & ((1u << bits) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertEncode3(x, x ^ 21u, x ^ 7u, bits));
    ++x;
    x &= (1u << bits) - 1;
  }
}
BENCHMARK(BM_HilbertEncode3)->Arg(8)->Arg(16)->Arg(21);

void BM_SegmentDistance(benchmark::State& state) {
  Rng rng(1);
  std::vector<Segment> segments;
  for (int i = 0; i < 1024; ++i) {
    segments.emplace_back(
        Vec3(rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)),
        Vec3(rng.Uniform(0, 100), rng.Uniform(0, 100), rng.Uniform(0, 100)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        segments[i & 1023].DistanceSquaredTo(segments[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_SegmentDistance);

void BM_GridCellsAlongSegment(benchmark::State& state) {
  const UniformGrid grid(Aabb(Vec3(0, 0, 0), Vec3(100, 100, 100)), 32, 32,
                         32);
  Rng rng(2);
  std::vector<Segment> segments;
  for (int i = 0; i < 256; ++i) {
    const Vec3 a(rng.Uniform(0, 100), rng.Uniform(0, 100),
                 rng.Uniform(0, 100));
    Vec3 d(rng.Gaussian(0, 1), rng.Gaussian(0, 1), rng.Gaussian(0, 1));
    segments.emplace_back(a, a + d.Normalized() * 4.0);
  }
  std::vector<int64_t> cells;
  size_t i = 0;
  for (auto _ : state) {
    cells.clear();
    grid.CellsAlongSegment(segments[i & 255], &cells);
    benchmark::DoNotOptimize(cells.data());
    ++i;
  }
}
BENCHMARK(BM_GridCellsAlongSegment);

void BM_GraphGridHash(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Aabb bounds(Vec3(0, 0, 0), Vec3(43, 43, 43));
  const auto objects = benchsupport::RandomObjects(n, bounds, 3);
  std::vector<GraphInput> inputs;
  for (const auto& obj : objects) inputs.push_back(GraphInput{&obj, 0});
  for (auto _ : state) {
    SpatialGraph graph;
    benchmark::DoNotOptimize(
        BuildGraphGridHash(inputs, bounds, 32768, &graph));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GraphGridHash)->Arg(128)->Arg(512)->Arg(2048);

void BM_GraphGridHashSerial(benchmark::State& state) {
  // The reference builder (the differential oracle BuildGraphGridHash is
  // pinned against) on the same workload as BM_GraphGridHash, so the
  // oracle-vs-radix-route ratio reads off directly.
  const size_t n = static_cast<size_t>(state.range(0));
  const Aabb bounds(Vec3(0, 0, 0), Vec3(43, 43, 43));
  const auto objects = benchsupport::RandomObjects(n, bounds, 3);
  std::vector<GraphInput> inputs;
  for (const auto& obj : objects) inputs.push_back(GraphInput{&obj, 0});
  for (auto _ : state) {
    SpatialGraph graph;
    benchmark::DoNotOptimize(
        BuildGraphGridHashSerial(inputs, bounds, 32768, &graph));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GraphGridHashSerial)->Arg(2048);

void BM_GraphCsrTraverse(benchmark::State& state) {
  // Full exit-finding traversal (LabelComponents consumer shape) over the
  // finalized CSR adjacency — the read side of the observe hot path.
  const size_t n = static_cast<size_t>(state.range(0));
  const Aabb bounds(Vec3(0, 0, 0), Vec3(43, 43, 43));
  const auto objects = benchsupport::RandomObjects(n, bounds, 3);
  std::vector<GraphInput> inputs;
  for (const auto& obj : objects) inputs.push_back(GraphInput{&obj, 0});
  SpatialGraph graph;
  BuildGraphGridHash(inputs, bounds, 32768, &graph);
  uint32_t num_components = 0;
  const std::vector<uint32_t> component_of =
      LabelComponents(graph, &num_components);
  const Region region(Aabb(Vec3(2, 2, 2), Vec3(41, 41, 41)));
  std::vector<ExitPoint> exits;
  for (auto _ : state) {
    exits.clear();
    const TraversalStats stats =
        FindExits(graph, component_of, region, {}, &exits);
    benchmark::DoNotOptimize(stats.edges_traversed);
    benchmark::DoNotOptimize(exits.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GraphCsrTraverse)->Arg(512)->Arg(2048);

void BM_GraphBruteForce(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Aabb bounds(Vec3(0, 0, 0), Vec3(43, 43, 43));
  const auto objects = benchsupport::RandomObjects(n, bounds, 3);
  std::vector<GraphInput> inputs;
  for (const auto& obj : objects) inputs.push_back(GraphInput{&obj, 0});
  for (auto _ : state) {
    SpatialGraph graph;
    benchmark::DoNotOptimize(BuildGraphBruteForce(inputs, 1.5, &graph));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GraphBruteForce)->Arg(128)->Arg(512);

void BM_CacheInsertEvict(benchmark::State& state) {
  // Mixed insert/refresh/evict traffic over a working set twice the
  // capacity — the executor's steady-state PrefetchCache pattern.
  const size_t capacity_pages = static_cast<size_t>(state.range(0));
  PrefetchCache cache(capacity_pages * kPageBytes);
  const uint64_t working_set = capacity_pages * 2;
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Insert(static_cast<PageId>(rng.NextBounded(working_set))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertEvict)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_CacheHitTouch(benchmark::State& state) {
  // Pure hit path (hit test + LRU refresh) on a resident working set.
  const size_t capacity_pages = static_cast<size_t>(state.range(0));
  PrefetchCache cache(capacity_pages * kPageBytes);
  for (PageId p = 0; p < capacity_pages; ++p) cache.Insert(p);
  Rng rng(12);
  for (auto _ : state) {
    const PageId p = static_cast<PageId>(rng.NextBounded(capacity_pages));
    benchmark::DoNotOptimize(cache.TouchIfPresent(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitTouch)->Arg(1024)->Arg(16384);

void BM_RTreeRangeQuery(benchmark::State& state) {
  const Aabb bounds(Vec3(0, 0, 0), Vec3(300, 300, 300));
  static auto index = []() {
    return std::move(*RTreeIndex::Build(
        benchsupport::RandomObjects(200000, Aabb(Vec3(0, 0, 0),
                                                 Vec3(300, 300, 300)),
                                    4)));
  }();
  Rng rng(5);
  std::vector<PageId> pages;
  for (auto _ : state) {
    const Region query = Region::CubeAt(
        Vec3(rng.Uniform(30, 270), rng.Uniform(30, 270),
             rng.Uniform(30, 270)),
        80000.0);
    pages.clear();
    index->QueryPages(query, &pages);
    benchmark::DoNotOptimize(pages.data());
  }
  (void)bounds;
}
BENCHMARK(BM_RTreeRangeQuery);

void BM_RTreeDirectoryWalk(benchmark::State& state) {
  // Pure directory walk: box queries against a bare BoxRTree (no page
  // store), isolating the SoA child-AABB test loop. Tree + query
  // distribution shared with the recorder's rtree_directory_walk row
  // via benchsupport (STR-packed entries).
  const size_t n = static_cast<size_t>(state.range(0));
  const BoxRTree tree = benchsupport::DirectoryWalkTree(n);
  Rng rng(17);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    const Aabb query = benchsupport::NextDirectoryWalkQuery(&rng);
    out.clear();
    tree.Query(query, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RTreeDirectoryWalk)->Arg(50000)->Arg(200000);

void BM_FrustumPrefilteredQuery(benchmark::State& state) {
  // Frustum-aspect index queries: the walk the vis scenarios run, with
  // the AABB prefilter rejecting far-away directory nodes before the
  // plane tests. Query distribution shared with the recorder's
  // frustum_prefiltered_query row via benchsupport.
  static auto index = []() {
    return std::move(*RTreeIndex::Build(
        benchsupport::RandomObjects(200000, Aabb(Vec3(0, 0, 0),
                                                 Vec3(300, 300, 300)),
                                    4)));
  }();
  Rng rng(15);
  std::vector<PageId> pages;
  for (auto _ : state) {
    const Region query = benchsupport::NextFrustumQuery(&rng);
    pages.clear();
    index->QueryPages(query, &pages);
    benchmark::DoNotOptimize(pages.data());
  }
}
BENCHMARK(BM_FrustumPrefilteredQuery);

void BM_FrustumBatchHullTest(benchmark::State& state) {
  // Batched corner-hull AABB prefilter (Frustum::HullOverlapBits) over a
  // blocked-SoA slot array: the per-chunk rejection step the directory
  // walk runs before any exact plane test. Workload shared with the
  // recorder's frustum_batch_hull_test row via benchsupport.
  constexpr uint32_t kBoxes = 4096;
  static_assert(kBoxes % 64 == 0);
  const std::vector<double> blocks = benchsupport::HullTestSlotBlocks(kBoxes);
  const Frustum frustum = benchsupport::HullTestFrustum();
  uint64_t survivors = 0;
  for (auto _ : state) {
    for (uint32_t base = 0; base < kBoxes; base += 64) {
      survivors += std::popcount(
          frustum.HullOverlapBits(blocks.data(), base, 64));
    }
  }
  benchmark::DoNotOptimize(survivors);
  state.SetItemsProcessed(state.iterations() * kBoxes);
}
BENCHMARK(BM_FrustumBatchHullTest);

void BM_FlatOrderedQuery(benchmark::State& state) {
  static auto index = []() {
    return std::move(*FlatIndex::Build(
        benchsupport::RandomObjects(100000, Aabb(Vec3(0, 0, 0),
                                                 Vec3(250, 250, 250)),
                                    6)));
  }();
  Rng rng(7);
  std::vector<PageId> pages;
  for (auto _ : state) {
    const Vec3 center(rng.Uniform(30, 220), rng.Uniform(30, 220),
                      rng.Uniform(30, 220));
    const Region query = Region::CubeAt(center, 80000.0);
    pages.clear();
    index->QueryPagesOrdered(query, center - Vec3(20, 0, 0), &pages);
    benchmark::DoNotOptimize(pages.data());
  }
}
BENCHMARK(BM_FlatOrderedQuery);

void BM_KMeans(benchmark::State& state) {
  Rng data_rng(8);
  std::vector<Vec3> points;
  for (int i = 0; i < 200; ++i) {
    points.emplace_back(data_rng.Uniform(0, 50), data_rng.Uniform(0, 50),
                        data_rng.Uniform(0, 50));
  }
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KMeans(points, 6, &rng));
  }
}
BENCHMARK(BM_KMeans);

}  // namespace
}  // namespace scout

BENCHMARK_MAIN();
