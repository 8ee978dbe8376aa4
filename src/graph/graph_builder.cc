#include "graph/graph_builder.h"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <unordered_map>

#include "geom/grid.h"

namespace scout {

namespace {

// Adds all inputs as vertices; returns the count.
VertexId AddVertices(std::span<const GraphInput> inputs, SpatialGraph* graph) {
  std::span<GraphVertex> out = graph->AppendVertices(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const GraphInput& in = inputs[i];
    GraphVertex& v = out[i];
    v.object_id = in.object->id;
    v.page_id = in.page;
    v.line = in.object->geom.AsLine();
  }
  return static_cast<VertexId>(inputs.size());
}

// 64-bit finalizer (splitmix64) used to hash grid-cell keys and packed
// edge keys into the open-addressed tables below.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline size_t NextPow2(size_t v) {
  size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

// Open-addressed set of undirected edges packed as (min << 32) | max,
// used to dedup cell-pair edges during the sweep (min < max always, so
// the all-ones key is free to mark empty slots). Linear probing, grows by
// rehashing at ~70% load.
class EdgeSet {
 public:
  explicit EdgeSet(size_t expected) {
    capacity_ = NextPow2(expected * 2);
    slots_.assign(capacity_, kEmpty);
  }

  // Returns true if the edge was not present yet.
  bool Insert(uint64_t key) {
    if ((size_ + 1) * 10 >= capacity_ * 7) Grow();
    uint64_t* slot = FindSlot(slots_.data(), capacity_, key);
    if (*slot == key) return false;
    *slot = key;
    ++size_;
    return true;
  }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  static uint64_t* FindSlot(uint64_t* slots, size_t capacity, uint64_t key) {
    const size_t mask = capacity - 1;
    size_t i = Mix64(key) & mask;
    while (slots[i] != kEmpty && slots[i] != key) i = (i + 1) & mask;
    return &slots[i];
  }

  void Grow() {
    std::vector<uint64_t> grown(capacity_ * 2, kEmpty);
    for (uint64_t key : slots_) {
      if (key != kEmpty) *FindSlot(grown.data(), grown.size(), key) = key;
    }
    slots_.swap(grown);
    capacity_ = slots_.size();
  }

  std::vector<uint64_t> slots_;
  size_t capacity_;
  size_t size_ = 0;
};

// Direct grids (at most this many cells) whose cell id and vertex id
// together fit in 32 bits take the radix route; every other grid takes
// the cell-table route. The cap also bounds the radix sort at three
// byte passes over the cell bits.
constexpr int64_t kDirectIndexCells = int64_t{1} << 20;

// Open-addressed edge set over persistent scratch storage: the slot
// array stays allocated (and kEmpty-filled) across calls, and the
// destructor clears only the slots written this call (tracked in a
// dirty list), so a rebuild touches memory proportional to the edges it
// inserted instead of re-allocating and zero-filling the whole table.
// Same probe sequence and same dedup answers as EdgeSet above.
class ScratchEdgeSet {
 public:
  ScratchEdgeSet(size_t expected, std::vector<uint64_t>* slots,
                 std::vector<uint32_t>* dirty)
      : slots_(slots), dirty_(dirty) {
    const size_t want = NextPow2(expected * 2);
    if (slots_->size() < want) slots_->assign(want, kEmpty);
    dirty_->clear();
  }

  ~ScratchEdgeSet() {
    for (const uint32_t i : *dirty_) (*slots_)[i] = kEmpty;
    dirty_->clear();
  }

  // Returns true if the edge was not present yet.
  bool Insert(uint64_t key) {
    if ((dirty_->size() + 1) * 10 >= slots_->size() * 7) Grow();
    const size_t mask = slots_->size() - 1;
    uint64_t* data = slots_->data();
    size_t i = Mix64(key) & mask;
    while (data[i] != kEmpty && data[i] != key) i = (i + 1) & mask;
    if (data[i] == key) return false;
    data[i] = key;
    dirty_->push_back(static_cast<uint32_t>(i));
    return true;
  }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  void Grow() {
    std::vector<uint64_t> grown(slots_->size() * 2, kEmpty);
    const size_t mask = grown.size() - 1;
    for (uint32_t& di : *dirty_) {
      const uint64_t key = (*slots_)[di];
      size_t i = Mix64(key) & mask;
      while (grown[i] != kEmpty) i = (i + 1) & mask;
      grown[i] = key;
      di = static_cast<uint32_t>(i);
    }
    slots_->swap(grown);
  }

  std::vector<uint64_t>* slots_;
  std::vector<uint32_t>* dirty_;
};

// Per-thread reusable buffers for the grid-hash builder. The recorder
// and the engine rebuild graphs back to back; keeping the flat tables
// and arenas warm across calls removes the allocation and page-fault
// tax from every rebuild without changing any result (every buffer is
// fully (re)initialized per call).
struct GridHashScratch {
  std::vector<Segment> lines;
  std::vector<uint32_t> keys;      ///< Radix route: packed (cell, vertex).
  std::vector<uint32_t> keys_tmp;  ///< Radix route: ping-pong buffer.
  std::vector<int64_t> cell_arena;  ///< Cell-table route: cells per vertex.
  std::vector<uint32_t> cell_end;
  std::vector<uint32_t> dense;
  std::vector<uint32_t> cell_counts;
  std::vector<uint32_t> cell_offsets;
  std::vector<uint32_t> cursor;
  std::vector<VertexId> members;
  std::vector<uint64_t> edge_slots;  ///< ScratchEdgeSet storage.
  std::vector<uint32_t> edge_dirty;  ///< ScratchEdgeSet dirty-slot list.
};

GridHashScratch& LocalScratch() {
  thread_local GridHashScratch scratch;
  return scratch;
}

// Radix route: every (cell, vertex) pair is packed into one uint32 key
// (cell << vbits | vertex) and counted into the byte histograms as the
// DDA walk emits it, then a stable LSD radix sort over the cell bytes
// groups the keys into per-cell runs. Emission is vertex-major and a
// segment's walk emits each cell once, so every run comes out in
// ascending vertex order and duplicate-free. Runs are swept in
// ascending cell order rather than the serial builder's first-touch
// order; that cannot change any output, because the stats counters are
// order-independent sums over cells and SpatialGraph::Finalize sorts
// and dedups the buffered edges.
void RadixRoute(const UniformGrid& grid, uint32_t n, uint32_t cell_bits,
                uint32_t vbits, GridHashScratch* s, SpatialGraph* graph,
                GraphBuildStats* stats) {
  const uint32_t passes = std::max(1u, (cell_bits + 7) / 8);
  uint32_t hist[3][256] = {};

  // Emission goes through a bump pointer instead of push_back: one
  // segment emits at most nx+ny+nz+4 cells, so a single capacity check
  // per segment (not per cell) keeps the emit down to a store and the
  // histogram touches. The buffer persists across calls, so steady
  // state never grows. The emit is specialized on the radix pass count
  // so it only feeds the histograms a pass will consume.
  const size_t per_seg =
      static_cast<size_t>(grid.nx()) + grid.ny() + grid.nz() + 4;
  if (s->keys.size() < per_seg * 2) s->keys.resize(per_seg * 2);
  uint32_t* base = s->keys.data();
  uint32_t* cur = base;
  const auto fused_walk = [&](auto pass_count) {
    constexpr uint32_t kPasses = decltype(pass_count)::value;
    for (uint32_t v = 0; v < n; ++v) {
      if (s->keys.size() - static_cast<size_t>(cur - base) < per_seg) {
        const size_t used = static_cast<size_t>(cur - base);
        s->keys.resize(std::max(s->keys.size() * 2, used + per_seg));
        base = s->keys.data();
        cur = base + used;
      }
      grid.WalkCellsAlongSegment(s->lines[v], [&cur, &hist, v,
                                               vbits](int64_t cell) {
        const uint32_t key = (static_cast<uint32_t>(cell) << vbits) | v;
        *cur++ = key;
        ++hist[0][(key >> vbits) & 255];
        if constexpr (kPasses >= 2) ++hist[1][(key >> (vbits + 8)) & 255];
        if constexpr (kPasses >= 3) ++hist[2][(key >> (vbits + 16)) & 255];
      });
    }
  };
  if (passes == 1) {
    fused_walk(std::integral_constant<uint32_t, 1>{});
  } else if (passes == 2) {
    fused_walk(std::integral_constant<uint32_t, 2>{});
  } else {
    fused_walk(std::integral_constant<uint32_t, 3>{});
  }
  const size_t size = static_cast<size_t>(cur - base);
  stats->cell_inserts = size;

  s->keys_tmp.resize(size);
  uint32_t* src = s->keys.data();
  uint32_t* dst = s->keys_tmp.data();
  for (uint32_t p = 0; p < passes; ++p) {
    uint32_t* h = hist[p];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = h[b];
      h[b] = sum;
      sum += c;
    }
    const uint32_t shift = vbits + 8 * p;
    for (size_t i = 0; i < size; ++i) {
      const uint32_t k = src[i];
      dst[h[(k >> shift) & 255]++] = k;
    }
    std::swap(src, dst);
  }
  const uint32_t* sorted = src;

  // Pairwise sweep — the same pairs and the same counter increments as
  // the serial builder, with no in-sweep dedup: Finalize sorts and
  // uniques the buffered edges anyway, so the edge buffer holds one
  // entry per pair (bounded by pair_comparisons, the work the sweep
  // already does). Two keys share a cell iff their XOR has no bits at
  // or above vbits; most entries are single-member runs, so the common
  // path is one compare per entry.
  const uint64_t same_cell = uint64_t{1} << vbits;
  const uint32_t vmask = static_cast<uint32_t>(same_cell - 1);
  size_t i = 0;
  while (i + 1 < size) {
    if ((sorted[i] ^ sorted[i + 1]) >= same_cell) {
      ++i;
      continue;
    }
    size_t end = i + 2;
    while (end < size && (sorted[i] ^ sorted[end]) < same_cell) ++end;
    for (size_t a = i; a < end; ++a) {
      const VertexId va = sorted[a] & vmask;
      for (size_t b = a + 1; b < end; ++b) {
        ++stats->pair_comparisons;
        ++stats->edges_created;
        graph->AddEdge(va, sorted[b] & vmask);
      }
    }
    i = end;
  }
}

// Cell-table route: the serial builder's algorithm over scratch
// buffers. The (cell, vertex) pairs are staged in one arena, each
// occupied cell gets a dense id through an open-addressed table (memory
// proportional to occupied cells, not to the grid), a counting sort
// forms the per-cell member runs, and cell-pair edges are dedup'ed
// during the sweep.
void CellTableRoute(const UniformGrid& grid, uint32_t n, GridHashScratch* s,
                    SpatialGraph* graph, GraphBuildStats* stats) {
  s->cell_end.resize(n);
  s->cell_arena.clear();
  for (uint32_t v = 0; v < n; ++v) {
    grid.CellsAlongSegment(s->lines[v], &s->cell_arena);
    s->cell_end[v] = static_cast<uint32_t>(s->cell_arena.size());
  }
  const size_t size = s->cell_arena.size();
  stats->cell_inserts = size;

  s->dense.resize(size);
  s->cell_counts.clear();
  const size_t table_cap = NextPow2(size * 2);
  const size_t table_mask = table_cap - 1;
  std::vector<int64_t> table_keys(table_cap, -1);
  std::vector<uint32_t> table_ids(table_cap);
  for (size_t i = 0; i < size; ++i) {
    const int64_t cell = s->cell_arena[i];
    size_t slot = Mix64(static_cast<uint64_t>(cell)) & table_mask;
    while (table_keys[slot] != -1 && table_keys[slot] != cell) {
      slot = (slot + 1) & table_mask;
    }
    if (table_keys[slot] == -1) {
      table_keys[slot] = cell;
      table_ids[slot] = static_cast<uint32_t>(s->cell_counts.size());
      s->cell_counts.push_back(0);
    }
    s->dense[i] = table_ids[slot];
    ++s->cell_counts[s->dense[i]];
  }
  const size_t num_cells = s->cell_counts.size();
  s->cell_offsets.resize(num_cells + 1);
  s->cell_offsets[0] = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    s->cell_offsets[c + 1] = s->cell_offsets[c] + s->cell_counts[c];
  }
  s->members.resize(size);
  s->cursor.assign(s->cell_offsets.begin(), s->cell_offsets.end() - 1);
  uint32_t begin = 0;
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t i = begin; i < s->cell_end[v]; ++i) {
      s->members[s->cursor[s->dense[i]]++] = v;
    }
    begin = s->cell_end[v];
  }

  ScratchEdgeSet seen(static_cast<size_t>(n) * 2, &s->edge_slots,
                      &s->edge_dirty);
  for (size_t c = 0; c < num_cells; ++c) {
    const uint32_t run_end = s->cell_offsets[c + 1];
    for (uint32_t i = s->cell_offsets[c]; i < run_end; ++i) {
      const uint64_t hi = static_cast<uint64_t>(s->members[i]) << 32;
      for (uint32_t j = i + 1; j < run_end; ++j) {
        ++stats->pair_comparisons;
        ++stats->edges_created;
        if (seen.Insert(hi | s->members[j])) {
          graph->AddEdge(s->members[i], s->members[j]);
        }
      }
    }
  }
}

}  // namespace

GraphBuildStats BuildGraphGridHash(std::span<const GraphInput> inputs,
                                   const Aabb& bounds, int64_t total_cells,
                                   SpatialGraph* graph) {
  GraphBuildStats stats;
  if (inputs.empty() || bounds.IsEmpty()) return stats;
  AddVertices(inputs, graph);

  const UniformGrid grid = UniformGrid::WithTotalCells(bounds, total_cells);
  const uint32_t n = static_cast<uint32_t>(inputs.size());
  GridHashScratch& s = LocalScratch();
  // Stage the lines flat so the walks stream over 48-byte segments
  // instead of striding 72-byte vertices (same trick as the serial
  // builder).
  s.lines.resize(n);
  for (uint32_t v = 0; v < n; ++v) s.lines[v] = graph->vertex(v).line;
  stats.objects_hashed = n;

  const uint32_t cell_bits = static_cast<uint32_t>(
      std::bit_width(static_cast<uint64_t>(grid.TotalCells() - 1)));
  const uint32_t vbits = static_cast<uint32_t>(std::bit_width(n - 1));
  if (grid.TotalCells() <= kDirectIndexCells && cell_bits + vbits <= 32) {
    RadixRoute(grid, n, cell_bits, vbits, &s, graph, &stats);
  } else {
    CellTableRoute(grid, n, &s, graph, &stats);
  }
  graph->Finalize();
  return stats;
}

GraphBuildStats BuildGraphGridHashSerial(std::span<const GraphInput> inputs,
                                         const Aabb& bounds,
                                         int64_t total_cells,
                                         SpatialGraph* graph) {
  GraphBuildStats stats;
  if (inputs.empty() || bounds.IsEmpty()) return stats;
  AddVertices(inputs, graph);

  const UniformGrid grid = UniformGrid::WithTotalCells(bounds, total_cells);
  const uint32_t n = static_cast<uint32_t>(inputs.size());

  // Hash every vertex line to the cells it traverses, into one contiguous
  // (cell, vertex) arena: cell ids are appended per vertex and
  // cell_end[v] marks the end of vertex v's run. Reading the lines out of
  // the vertex array once into a flat segment array keeps the DDA walks
  // streaming over 48-byte segments instead of striding 72-byte vertices.
  std::vector<Segment> lines(n);
  for (uint32_t v = 0; v < n; ++v) lines[v] = graph->vertex(v).line;

  std::vector<int64_t> cell_arena;
  cell_arena.reserve(static_cast<size_t>(n) * 4);
  std::vector<uint32_t> cell_end(n);
  for (uint32_t v = 0; v < n; ++v) {
    grid.CellsAlongSegment(lines[v], &cell_arena);
    ++stats.objects_hashed;
    cell_end[v] = static_cast<uint32_t>(cell_arena.size());
  }
  stats.cell_inserts = cell_arena.size();

  // Assign each distinct occupied cell a dense id through a flat
  // open-addressed table (memory stays proportional to occupied cells,
  // like the hash-map it replaces, but with no per-bucket allocations).
  const size_t table_cap = NextPow2(cell_arena.size() * 2);
  const size_t table_mask = table_cap - 1;
  std::vector<int64_t> table_keys(table_cap, -1);
  std::vector<uint32_t> table_ids(table_cap);
  std::vector<uint32_t> dense(cell_arena.size());
  std::vector<uint32_t> cell_counts;
  for (size_t i = 0; i < cell_arena.size(); ++i) {
    const int64_t cell = cell_arena[i];
    size_t slot = Mix64(static_cast<uint64_t>(cell)) & table_mask;
    while (table_keys[slot] != -1 && table_keys[slot] != cell) {
      slot = (slot + 1) & table_mask;
    }
    if (table_keys[slot] == -1) {
      table_keys[slot] = cell;
      table_ids[slot] = static_cast<uint32_t>(cell_counts.size());
      cell_counts.push_back(0);
    }
    dense[i] = table_ids[slot];
    ++cell_counts[dense[i]];
  }

  // Counting-sort the arena into per-cell member runs. Vertices are
  // scanned in ascending order and the DDA emits each cell of a segment
  // once, so every run comes out sorted and duplicate-free — the
  // per-bucket sort + unique of the old map-based builder is implicit.
  const size_t num_cells = cell_counts.size();
  std::vector<uint32_t> cell_offsets(num_cells + 1, 0);
  for (size_t c = 0; c < num_cells; ++c) {
    cell_offsets[c + 1] = cell_offsets[c] + cell_counts[c];
  }
  std::vector<VertexId> members(cell_arena.size());
  {
    std::vector<uint32_t> cursor(cell_offsets.begin(), cell_offsets.end() - 1);
    uint32_t begin = 0;
    for (uint32_t v = 0; v < n; ++v) {
      for (uint32_t i = begin; i < cell_end[v]; ++i) {
        members[cursor[dense[i]]++] = v;
      }
      begin = cell_end[v];
    }
  }

  // Objects mapped to the same cell are connected pairwise (Figure 4).
  // Cell-pair edges are dedup'ed during the sweep; the work counters
  // still count every considered pair (identical to the pre-CSR builder,
  // which created all of them and dedup'ed afterwards).
  EdgeSet seen(static_cast<size_t>(n) * 2);
  for (size_t c = 0; c < num_cells; ++c) {
    const uint32_t begin = cell_offsets[c];
    const uint32_t end = cell_offsets[c + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const uint64_t hi = static_cast<uint64_t>(members[i]) << 32;
      for (uint32_t j = i + 1; j < end; ++j) {
        ++stats.pair_comparisons;
        ++stats.edges_created;
        if (seen.Insert(hi | members[j])) {
          graph->AddEdge(members[i], members[j]);
        }
      }
    }
  }
  graph->Finalize();
  return stats;
}

GraphBuildStats BuildGraphBruteForce(std::span<const GraphInput> inputs,
                                     double epsilon, SpatialGraph* graph) {
  GraphBuildStats stats;
  AddVertices(inputs, graph);
  const double eps_sq = epsilon * epsilon;
  for (VertexId i = 0; i < inputs.size(); ++i) {
    for (VertexId j = i + 1; j < inputs.size(); ++j) {
      ++stats.pair_comparisons;
      if (graph->vertex(i).line.DistanceSquaredTo(graph->vertex(j).line) <=
          eps_sq) {
        graph->AddEdge(i, j);
        ++stats.edges_created;
      }
    }
  }
  graph->Finalize();
  return stats;
}

GraphBuildStats BuildGraphExplicit(
    std::span<const GraphInput> inputs,
    std::span<const std::pair<ObjectId, ObjectId>> adjacency,
    SpatialGraph* graph) {
  GraphBuildStats stats;
  AddVertices(inputs, graph);
  // scout-lint: allow(det-unordered-container): point lookups only; edges
  // are emitted in the caller-provided adjacency order.
  std::unordered_map<ObjectId, VertexId> by_object;
  by_object.reserve(inputs.size() * 2);
  for (VertexId v = 0; v < inputs.size(); ++v) {
    by_object[graph->vertex(v).object_id] = v;
  }
  for (const auto& [a, b] : adjacency) {
    ++stats.pair_comparisons;
    auto ia = by_object.find(a);
    auto ib = by_object.find(b);
    if (ia == by_object.end() || ib == by_object.end()) continue;
    graph->AddEdge(ia->second, ib->second);
    ++stats.edges_created;
  }
  graph->Finalize();
  return stats;
}

}  // namespace scout
