#include "exec/matcher.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "relational/eval.hpp"
#include "relational/vector_eval.hpp"

namespace gems::exec {

namespace {

using graph::CsrIndex;
using graph::EdgeType;
using graph::EdgeTypeId;
using graph::GraphView;
using graph::VertexIndex;
using graph::VertexType;
using graph::VertexTypeId;
using relational::RowCursor;

/// Frontiers narrower than this many 64-bit words stay on the calling
/// thread even when a pool is available: fan-out/merge overhead would
/// dominate a sub-512-vertex expansion.
constexpr std::size_t kParallelFrontierWords = 8;

}  // namespace

std::size_t Domain::count() const {
  std::size_t n = 0;
  for (const auto& [type, bits] : sets) n += bits.count();
  return n;
}

bool Domain::empty() const {
  for (const auto& [type, bits] : sets) {
    if (bits.any()) return false;
  }
  return true;
}

bool Domain::intersect(const Domain& other) {
  bool changed = false;
  for (auto& [type, bits] : sets) {
    auto it = other.sets.find(type);
    if (it == other.sets.end()) {
      if (bits.any()) {
        bits.reset_all();
        changed = true;
      }
      continue;
    }
    changed |= bits.intersect_changed(it->second);
  }
  return changed;
}

namespace {

/// Scratch evaluation state: one cursor slot per variable plus the edge
/// band starting at kEdgeSourceBase. One instance per worker shard — the
/// cursors are mutable scratch and must not be shared across threads.
class Evaluator {
 public:
  Evaluator(const ConstraintNetwork& net, const GraphView& graph,
            const StringPool& pool)
      : net_(net), graph_(graph), pool_(pool) {
    cursors_.resize(kEdgeSourceBase + net.edges.size());
  }

  void set_vertex(int var, VertexTypeId type, VertexIndex v) {
    const VertexType& vt = graph_.vertex_type(type);
    cursors_[var] = {&vt.source(), vt.representative_row(v)};
  }

  void set_edge(int edge_con, EdgeTypeId type, graph::EdgeIndex e) {
    const EdgeType& et = graph_.edge_type(type);
    GEMS_DCHECK(et.attr_table() != nullptr);
    cursors_[kEdgeSourceBase + edge_con] = {et.attr_table(), e};
  }

  bool eval(const relational::BoundExprPtr& pred) const {
    return relational::eval_predicate(*pred, cursors_, pool_);
  }

  bool eval_all(const std::vector<relational::BoundExprPtr>& preds) const {
    for (const auto& p : preds) {
      if (!eval(p)) return false;
    }
    return true;
  }

 private:
  const ConstraintNetwork& net_;
  const GraphView& graph_;
  const StringPool& pool_;
  std::vector<RowCursor> cursors_;
};

// ---- Sharded frontier expansion -------------------------------------------
//
// Every propagation step is a union of CSR walks: for each admissible edge
// type, visit the neighbors of every frontier vertex, filter by edge and
// target predicates, and set the survivors in a per-type output bitset.
// `expand_traversals` runs that shape either serially or morsel-style:
// workers take contiguous word-ranges of the frontier bitset and write
// private per-type shards (own MatchStats, own predicate scratch via the
// shard index handed to the filters), which are OR-merged at the join.
// Set union is order- and partition-independent and the filters are pure,
// so the merged result is bit-identical to the serial walk for any thread
// count. `edge_traversals` is counted per neighbor visit *before* the
// dedup test, making it partition-invariant too.

/// One CSR walk of an expansion: frontier bits -> out_type candidates.
struct Traversal {
  const EdgeType* et = nullptr;
  VertexTypeId out_type = 0;
  const CsrIndex* index = nullptr;
  const DynamicBitset* from_bits = nullptr;
};

/// Walks `t` over frontier words [word_begin, word_end). `failed_bits`
/// (may be null) memoizes vertices whose vertex filter already failed, so
/// a high-in-degree target is evaluated at most once per expansion.
template <typename EdgeFilter, typename VertexFilter>
void walk_range(const Traversal& t, std::size_t word_begin,
                std::size_t word_end, std::size_t shard,
                DynamicBitset& out_bits, DynamicBitset* failed_bits,
                MatchStats* stats, const EdgeFilter& edge_ok,
                const VertexFilter& vertex_ok) {
  t.from_bits->for_each_in_range(word_begin, word_end, [&](std::size_t v) {
    const auto neighbors = t.index->neighbors(static_cast<VertexIndex>(v));
    const auto edge_ids = t.index->edges(static_cast<VertexIndex>(v));
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexIndex u = neighbors[i];
      if (stats != nullptr) ++stats->edge_traversals;
      if (out_bits.test(u)) continue;
      if (failed_bits != nullptr && failed_bits->test(u)) continue;
      if (!edge_ok(shard, *t.et, edge_ids[i])) continue;
      if (vertex_ok(shard, t.out_type, u)) {
        out_bits.set(u);
      } else if (failed_bits != nullptr) {
        failed_bits->set(u);
      }
    }
  });
}

/// Runs all traversals into `out` (whose per-type bitsets must already
/// exist). Parallel iff a pool is given and the widest frontier crosses
/// kParallelFrontierWords; the filters receive the shard index to select
/// private evaluation scratch.
template <typename EdgeFilter, typename VertexFilter>
void expand_traversals(const std::vector<Traversal>& traversals, Domain& out,
                       bool memo_failed, MatchStats* stats, ThreadPool* intra,
                       const EdgeFilter& edge_ok,
                       const VertexFilter& vertex_ok) {
  if (traversals.empty()) return;
  std::size_t max_words = 0;
  for (const Traversal& t : traversals) {
    max_words = std::max(max_words, t.from_bits->num_words());
  }

  if (intra == nullptr || max_words < kParallelFrontierWords) {
    Domain failed;  // per-out-type "evaluated and rejected" memo
    for (const Traversal& t : traversals) {
      DynamicBitset& out_bits = out.sets.at(t.out_type);
      DynamicBitset* failed_bits = nullptr;
      if (memo_failed) {
        auto [it, inserted] =
            failed.sets.try_emplace(t.out_type, DynamicBitset(out_bits.size()));
        failed_bits = &it->second;
      }
      walk_range(t, 0, t.from_bits->num_words(), /*shard=*/0, out_bits,
                 failed_bits, stats, edge_ok, vertex_ok);
    }
    return;
  }

  const std::size_t shards = intra->size();
  std::vector<Domain> shard_out(shards);
  std::vector<Domain> shard_failed(memo_failed ? shards : 0);
  std::vector<MatchStats> shard_stats(shards);
  for (const auto& [type, bits] : out.sets) {
    for (std::size_t s = 0; s < shards; ++s) {
      shard_out[s].sets.emplace(type, DynamicBitset(bits.size()));
      if (memo_failed) {
        shard_failed[s].sets.emplace(type, DynamicBitset(bits.size()));
      }
    }
  }

  // One barrier per traversal: chunk index == shard index, so a shard's
  // bitsets and stats are only ever touched by one task at a time.
  for (const Traversal& t : traversals) {
    intra->parallel_for_ranges(
        t.from_bits->num_words(), shards,
        [&](std::size_t shard, std::size_t wb, std::size_t we) {
          Timer timer;
          DynamicBitset& sbits = shard_out[shard].sets.at(t.out_type);
          DynamicBitset* fbits =
              memo_failed ? &shard_failed[shard].sets.at(t.out_type) : nullptr;
          walk_range(t, wb, we, shard, sbits, fbits, &shard_stats[shard],
                     edge_ok, vertex_ok);
          ++shard_stats[shard].parallel_tasks;
          shard_stats[shard].worker_us.record(
              static_cast<std::uint64_t>(timer.elapsed_us()));
        });
  }

  Timer merge_timer;
  for (auto& [type, bits] : out.sets) {
    for (std::size_t s = 0; s < shards; ++s) {
      bits |= shard_out[s].sets.at(type);
    }
  }
  if (stats != nullptr) {
    stats->merge_ns +=
        static_cast<std::uint64_t>(merge_timer.elapsed_us() * 1e3);
    for (const MatchStats& ss : shard_stats) stats->absorb(ss);
  }
}

/// Marks bits of a single shared output bitset (edge sets) from a CSR walk
/// over `walk_bits`. The kernel visits frontier words [wb, we) and sets
/// bits in the bitset it is handed; shards get private bitsets that are
/// OR-merged, since distinct source vertices can own edge ids in the same
/// output word.
template <typename Kernel>
void sharded_mark(const DynamicBitset& walk_bits, DynamicBitset& out,
                  MatchStats* stats, ThreadPool* intra, const Kernel& kernel) {
  const std::size_t words = walk_bits.num_words();
  if (intra == nullptr || words < kParallelFrontierWords) {
    kernel(/*shard=*/std::size_t{0}, std::size_t{0}, words, out, stats);
    return;
  }
  const std::size_t shards = intra->size();
  std::vector<DynamicBitset> shard_bits(shards, DynamicBitset(out.size()));
  std::vector<MatchStats> shard_stats(shards);
  intra->parallel_for_ranges(
      words, shards, [&](std::size_t shard, std::size_t wb, std::size_t we) {
        Timer timer;
        kernel(shard, wb, we, shard_bits[shard], &shard_stats[shard]);
        ++shard_stats[shard].parallel_tasks;
        shard_stats[shard].worker_us.record(
            static_cast<std::uint64_t>(timer.elapsed_us()));
      });
  Timer merge_timer;
  for (std::size_t s = 0; s < shards; ++s) out |= shard_bits[s];
  if (stats != nullptr) {
    stats->merge_ns +=
        static_cast<std::uint64_t>(merge_timer.elapsed_us() * 1e3);
    for (const MatchStats& ss : shard_stats) stats->absorb(ss);
  }
}

/// Expands one group hop forward: all vertices reachable from `from` via
/// the hop's edge types, filtered by the hop's vertex types/conditions.
Domain expand_hop(const GraphView& graph, const StringPool& pool,
                  const GroupHop& hop, const Domain& from, MatchStats* stats,
                  ThreadPool* intra) {
  Domain out;
  for (const VertexTypeId t : hop.vertex_types) {
    out.sets.emplace(t, DynamicBitset(graph.vertex_type(t).num_vertices()));
  }

  std::vector<Traversal> traversals;
  auto add = [&](const EdgeType& et) {
    // Forward hop: current --e--> next (current is source).
    // Reversed hop: next --e--> current (current is target).
    const VertexTypeId cur_type =
        hop.reversed ? et.target_type() : et.source_type();
    const VertexTypeId next_type =
        hop.reversed ? et.source_type() : et.target_type();
    if (!out.sets.contains(next_type)) return;
    auto it = from.sets.find(cur_type);
    if (it == from.sets.end() || !it->second.any()) return;
    traversals.push_back({&et, next_type,
                          hop.reversed ? &et.reverse() : &et.forward(),
                          &it->second});
  };
  if (!hop.edge_types.empty()) {
    for (const EdgeTypeId id : hop.edge_types) add(graph.edge_type(id));
  } else {
    for (EdgeTypeId id = 0; id < graph.num_edge_types(); ++id) {
      add(graph.edge_type(id));
    }
  }

  // Hop conditions evaluate against a single-source scope; the cursors
  // live on the worker's stack, so no per-shard scratch is needed.
  auto edge_ok = [&](std::size_t, const EdgeType& et, graph::EdgeIndex e) {
    if (hop.edge_conds.empty()) return true;
    GEMS_DCHECK(et.attr_table() != nullptr);
    RowCursor cursor{et.attr_table(), e};
    const std::span<const RowCursor> span(&cursor, 1);
    for (const auto& cond : hop.edge_conds) {
      if (!relational::eval_predicate(*cond, span, pool)) return false;
    }
    return true;
  };
  auto vertex_ok = [&](std::size_t, VertexTypeId t, VertexIndex v) {
    if (hop.vertex_conds.empty()) return true;
    const VertexType& vt = graph.vertex_type(t);
    RowCursor cursor{&vt.source(), vt.representative_row(v)};
    const std::span<const RowCursor> span(&cursor, 1);
    for (const auto& cond : hop.vertex_conds) {
      if (!relational::eval_predicate(*cond, span, pool)) return false;
    }
    return true;
  };
  expand_traversals(traversals, out, /*memo_failed=*/!hop.vertex_conds.empty(),
                    stats, intra, edge_ok, vertex_ok);
  return out;
}

/// The same hop walked right-to-left. `target_hop` (may be null) supplies
/// the vertex conditions of the position being landed on.
Domain expand_hop_back(const GraphView& graph, const StringPool& pool,
                       const GroupHop& hop, const Domain& from,
                       const GroupHop* target_hop, MatchStats* stats,
                       ThreadPool* intra) {
  // Walking hop backwards flips the traversal direction; the vertex
  // filter comes from the *previous* position (target_hop), not this hop.
  Domain out;
  std::vector<VertexTypeId> target_types;
  if (target_hop != nullptr) {
    target_types = target_hop->vertex_types;
  } else {
    target_types.resize(graph.num_vertex_types());
    for (std::size_t i = 0; i < target_types.size(); ++i) {
      target_types[i] = static_cast<VertexTypeId>(i);
    }
  }
  for (const VertexTypeId t : target_types) {
    out.sets.emplace(t, DynamicBitset(graph.vertex_type(t).num_vertices()));
  }

  std::vector<Traversal> traversals;
  auto add = [&](const EdgeType& et) {
    // Forward hop prev --e--> cur: walking back from cur, prev is the
    // edge source -> use the reverse index keyed by target.
    const VertexTypeId cur_type =
        hop.reversed ? et.source_type() : et.target_type();
    const VertexTypeId prev_type =
        hop.reversed ? et.target_type() : et.source_type();
    if (!out.sets.contains(prev_type)) return;
    auto it = from.sets.find(cur_type);
    if (it == from.sets.end() || !it->second.any()) return;
    traversals.push_back({&et, prev_type,
                          hop.reversed ? &et.forward() : &et.reverse(),
                          &it->second});
  };
  if (!hop.edge_types.empty()) {
    for (const EdgeTypeId id : hop.edge_types) add(graph.edge_type(id));
  } else {
    for (EdgeTypeId id = 0; id < graph.num_edge_types(); ++id) {
      add(graph.edge_type(id));
    }
  }

  auto edge_ok = [&](std::size_t, const EdgeType& et, graph::EdgeIndex e) {
    if (hop.edge_conds.empty()) return true;
    GEMS_DCHECK(et.attr_table() != nullptr);
    RowCursor cursor{et.attr_table(), e};
    const std::span<const RowCursor> span(&cursor, 1);
    for (const auto& cond : hop.edge_conds) {
      if (!relational::eval_predicate(*cond, span, pool)) return false;
    }
    return true;
  };
  auto vertex_ok = [&](std::size_t, VertexTypeId t, VertexIndex v) {
    if (target_hop == nullptr || target_hop->vertex_conds.empty()) {
      return true;
    }
    const VertexType& vt = graph.vertex_type(t);
    RowCursor cursor{&vt.source(), vt.representative_row(v)};
    const std::span<const RowCursor> span(&cursor, 1);
    for (const auto& cond : target_hop->vertex_conds) {
      if (!relational::eval_predicate(*cond, span, pool)) return false;
    }
    return true;
  };
  const bool memo =
      target_hop != nullptr && !target_hop->vertex_conds.empty();
  expand_traversals(traversals, out, memo, stats, intra, edge_ok, vertex_ok);
  return out;
}

Domain domain_union(Domain a, const Domain& b) {
  for (const auto& [type, bits] : b.sets) {
    auto it = a.sets.find(type);
    if (it == a.sets.end()) {
      a.sets.emplace(type, bits);
    } else {
      it->second |= bits;
    }
  }
  return a;
}

bool domain_subtract_into(Domain& frontier, const Domain& seen) {
  // frontier -= seen; returns whether anything remains.
  bool any = false;
  for (auto& [type, bits] : frontier.sets) {
    auto it = seen.sets.find(type);
    if (it != seen.sets.end()) bits.subtract(it->second);
    any = any || bits.any();
  }
  return any;
}

constexpr std::uint32_t kMaxExactRepeats = 1024;

/// Full-body forward application: runs all hops once.
Domain apply_body(const GraphView& graph, const StringPool& pool,
                  const GroupConstraint& g, Domain d, MatchStats* stats,
                  ThreadPool* intra) {
  for (const GroupHop& hop : g.hops) {
    d = expand_hop(graph, pool, hop, d, stats, intra);
    if (d.empty()) break;
  }
  return d;
}

Domain apply_body_back(const GraphView& graph, const StringPool& pool,
                       const GroupConstraint& g, Domain d, MatchStats* stats,
                       ThreadPool* intra) {
  for (std::size_t i = g.hops.size(); i-- > 0;) {
    const GroupHop* target = i == 0 ? nullptr : &g.hops[i - 1];
    d = expand_hop_back(graph, pool, g.hops[i], d, target, stats, intra);
    if (d.empty()) break;
  }
  return d;
}

}  // namespace

/// Closure of the group going forward from `start`: all end-position
/// vertices after an admissible number of body iterations.
Result<Domain> group_closure_forward(const GraphView& graph,
                                     const StringPool& pool,
                                     const GroupConstraint& g,
                                     const Domain& start, MatchStats* stats,
                                     ThreadPool* intra_pool) {
  using Quant = graql::PathGroup::Quant;
  if (g.quant == Quant::kExact) {
    if (g.count > kMaxExactRepeats) {
      return invalid_argument("path repetition count exceeds " +
                              std::to_string(kMaxExactRepeats));
    }
    Domain d = start;
    for (std::uint32_t i = 0; i < g.count && !d.empty(); ++i) {
      d = apply_body(graph, pool, g, std::move(d), stats, intra_pool);
    }
    return d;
  }
  // * and +: fixpoint over boundary positions.
  Domain reached =
      apply_body(graph, pool, g, start, stats, intra_pool);  // 1 iteration
  Domain frontier = reached;
  while (!frontier.empty()) {
    Domain next =
        apply_body(graph, pool, g, std::move(frontier), stats, intra_pool);
    if (!domain_subtract_into(next, reached)) break;
    reached = domain_union(std::move(reached), next);
    frontier = std::move(next);
  }
  if (g.quant == Quant::kStar) {
    // Zero iterations: the start vertices themselves qualify.
    reached = domain_union(std::move(reached), start);
  }
  return reached;
}

Result<Domain> group_closure_backward(const GraphView& graph,
                                      const StringPool& pool,
                                      const GroupConstraint& g,
                                      const Domain& end, MatchStats* stats,
                                      ThreadPool* intra_pool) {
  using Quant = graql::PathGroup::Quant;
  if (g.quant == Quant::kExact) {
    if (g.count > kMaxExactRepeats) {
      return invalid_argument("path repetition count exceeds " +
                              std::to_string(kMaxExactRepeats));
    }
    Domain d = end;
    for (std::uint32_t i = 0; i < g.count && !d.empty(); ++i) {
      d = apply_body_back(graph, pool, g, std::move(d), stats, intra_pool);
    }
    return d;
  }
  Domain reached = apply_body_back(graph, pool, g, end, stats, intra_pool);
  Domain frontier = reached;
  while (!frontier.empty()) {
    Domain next =
        apply_body_back(graph, pool, g, std::move(frontier), stats, intra_pool);
    if (!domain_subtract_into(next, reached)) break;
    reached = domain_union(std::move(reached), next);
    frontier = std::move(next);
  }
  if (g.quant == Quant::kStar) {
    reached = domain_union(std::move(reached), end);
  }
  return reached;
}

bool vertex_passes(const ConstraintNetwork& net, const GraphView& graph,
                   const StringPool& pool, int var, VertexTypeId type,
                   VertexIndex v) {
  const VertexVar& vv = net.vars[var];
  if (vv.self_conds.empty()) return true;
  // Self conditions only dereference this variable's slot, so a cursor
  // span of var+1 entries suffices (the full kEdgeSourceBase-wide band
  // would cost a 64 KiB allocation per call — measured hot in planning).
  std::vector<RowCursor> cursors(static_cast<std::size_t>(var) + 1);
  const VertexType& vt = graph.vertex_type(type);
  cursors[var] = {&vt.source(), vt.representative_row(v)};
  for (const auto& pred : vv.self_conds) {
    if (!relational::eval_predicate(*pred, cursors, pool)) return false;
  }
  return true;
}

Domain initial_domain(const ConstraintNetwork& net, const GraphView& graph,
                      const StringPool& pool, int var,
                      ThreadPool* intra_pool) {
  const VertexVar& vv = net.vars[var];
  Domain d;
  for (const VertexTypeId t : vv.types) {
    const VertexType& vt = graph.vertex_type(t);
    DynamicBitset bits(vt.num_vertices());
    const DynamicBitset* seed_bits = vv.seed ? vv.seed->vertices(t) : nullptr;
    if (vv.seed && seed_bits == nullptr) {
      // Seeded step with no members of this type: empty.
      d.sets.emplace(t, std::move(bits));
      continue;
    }
    if (vv.self_conds.empty()) {
      if (seed_bits != nullptr) {
        bits |= *seed_bits;
      } else {
        bits.set_all();
      }
      d.sets.emplace(t, std::move(bits));
      continue;
    }
    // Condition evaluation per candidate vertex. Workers own disjoint
    // word-aligned vertex ranges of the output bitset, so they can write
    // it directly — no shards, no merge. Self conditions reference only
    // this variable's slot (see vertex_passes): a right-sized private
    // cursor span per worker avoids the wide band.
    //
    // When every self conjunct compiled to a kernel (lowering), the scan
    // gathers representative rows of seed-surviving vertices into batches
    // and ANDs the kernels' accepting-lane words — bit-identical to the
    // row loop (kernels reproduce eval_predicate; property-tested), and
    // race-free because workers still own disjoint word ranges.
    const bool use_kernels =
        net.batch_policy.vectorized() &&
        vv.self_cond_kernels.size() == vv.self_conds.size() &&
        std::all_of(vv.self_cond_kernels.begin(), vv.self_cond_kernels.end(),
                    [](const relational::VectorExprPtr& k) {
                      return k != nullptr;
                    });
    auto fill_range = [&](std::size_t word_begin, std::size_t word_end) {
      const std::size_t v_end =
          std::min<std::size_t>(vt.num_vertices(), word_end * 64);
      if (use_kernels) {
        const std::size_t window = net.batch_policy.clamped_rows();
        std::vector<relational::EvalScratch> scratches;
        scratches.reserve(vv.self_cond_kernels.size());
        for (const auto& k : vv.self_cond_kernels) {
          scratches.push_back(k->make_scratch());
        }
        std::array<storage::RowIndex, relational::kBatchRows> rows;
        std::array<std::size_t, relational::kBatchRows> verts;
        std::array<std::uint64_t, relational::kBatchWords> acc;
        std::size_t count = 0;
        auto flush = [&] {
          if (count == 0) return;
          const relational::RowBatch rb{&vt.source(), 0, rows.data(), count};
          relational::fill_ones_words(acc.data(), count);
          const std::size_t nw = relational::batch_words(count);
          for (std::size_t k = 0; k < vv.self_cond_kernels.size(); ++k) {
            const relational::ValueVector res =
                vv.self_cond_kernels[k]->eval(rb, scratches[k]);
            // bits ⊆ valid: set bits are exactly the truthy lanes.
            bool any = false;
            for (std::size_t w = 0; w < nw; ++w) {
              acc[w] &= res.bits[w];
              any |= acc[w] != 0;
            }
            if (!any) break;
          }
          relational::for_each_lane(
              acc.data(), count,
              [&](std::size_t lane) { bits.set(verts[lane]); });
          count = 0;
        };
        for (std::size_t v = word_begin * 64; v < v_end; ++v) {
          if (seed_bits != nullptr && !seed_bits->test(v)) continue;
          rows[count] =
              vt.representative_row(static_cast<VertexIndex>(v));
          verts[count] = v;
          if (++count == window) flush();
        }
        flush();
        return;
      }
      std::vector<RowCursor> cursors(static_cast<std::size_t>(var) + 1);
      for (std::size_t v = word_begin * 64; v < v_end; ++v) {
        if (seed_bits != nullptr && !seed_bits->test(v)) continue;
        cursors[var] = {&vt.source(),
                        vt.representative_row(static_cast<VertexIndex>(v))};
        bool ok = true;
        for (const auto& pred : vv.self_conds) {
          if (!relational::eval_predicate(*pred, cursors, pool)) {
            ok = false;
            break;
          }
        }
        if (ok) bits.set(v);
      }
    };
    if (intra_pool != nullptr && bits.num_words() >= kParallelFrontierWords) {
      intra_pool->parallel_for_ranges(
          bits.num_words(), intra_pool->size(),
          [&](std::size_t, std::size_t wb, std::size_t we) {
            fill_range(wb, we);
          });
    } else {
      fill_range(0, bits.num_words());
    }
    d.sets.emplace(t, std::move(bits));
  }
  return d;
}

std::vector<std::map<graph::EdgeTypeId, DynamicBitset>> matched_edge_sets(
    const ConstraintNetwork& net, const GraphView& graph,
    const StringPool& pool, const std::vector<Domain>& domains,
    MatchStats* stats, ThreadPool* intra_pool) {
  std::vector<std::map<EdgeTypeId, DynamicBitset>> out(net.edges.size());
  const std::size_t n_shards = intra_pool != nullptr ? intra_pool->size() : 1;
  std::vector<Evaluator> evs;
  evs.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) evs.emplace_back(net, graph, pool);

  for (std::size_t c = 0; c < net.edges.size(); ++c) {
    const EdgeConstraint& con = net.edges[c];
    for (const EdgeMove& move : con.moves) {
      const EdgeType& et = graph.edge_type(move.type);
      const Domain& src_dom =
          domains[move.forward ? con.left_var : con.right_var];
      const Domain& dst_dom =
          domains[move.forward ? con.right_var : con.left_var];
      auto src_it = src_dom.sets.find(et.source_type());
      auto dst_it = dst_dom.sets.find(et.target_type());
      if (src_it == src_dom.sets.end() || dst_it == dst_dom.sets.end()) {
        continue;
      }
      // Walk the CSR from the smaller matched domain; every edge appears
      // exactly once in each index, so the walk touches each candidate
      // edge once and never scans the full edge table.
      const bool walk_src = src_it->second.count() <= dst_it->second.count();
      const DynamicBitset& walk_bits =
          walk_src ? src_it->second : dst_it->second;
      const DynamicBitset& other_bits =
          walk_src ? dst_it->second : src_it->second;
      const CsrIndex& index = walk_src ? et.forward() : et.reverse();
      DynamicBitset bits(et.num_edges());
      sharded_mark(
          walk_bits, bits, stats, intra_pool,
          [&](std::size_t shard, std::size_t wb, std::size_t we,
              DynamicBitset& mark, MatchStats* ms) {
            walk_bits.for_each_in_range(wb, we, [&](std::size_t v) {
              const auto neighbors =
                  index.neighbors(static_cast<VertexIndex>(v));
              const auto edge_ids = index.edges(static_cast<VertexIndex>(v));
              for (std::size_t i = 0; i < neighbors.size(); ++i) {
                if (ms != nullptr) ++ms->edge_traversals;
                if (!other_bits.test(neighbors[i])) continue;
                const graph::EdgeIndex e = edge_ids[i];
                if (!con.self_conds.empty()) {
                  evs[shard].set_edge(static_cast<int>(c), move.type, e);
                  if (!evs[shard].eval_all(con.self_conds)) continue;
                }
                mark.set(e);
              }
            });
          });
      auto it = out[c].find(move.type);
      if (it == out[c].end()) {
        out[c].emplace(move.type, std::move(bits));
      } else {
        it->second |= bits;
      }
    }
  }
  return out;
}

Result<MatchResult> match_network(const ConstraintNetwork& net,
                                  const GraphView& graph,
                                  const StringPool& pool,
                                  const std::vector<int>* order,
                                  ThreadPool* intra_pool) {
  MatchResult result;
  result.domains.reserve(net.num_vars());
  for (std::size_t v = 0; v < net.num_vars(); ++v) {
    result.domains.push_back(
        initial_domain(net, graph, pool, static_cast<int>(v), intra_pool));
  }

  // One predicate evaluator per worker shard (the cursor band is mutable
  // scratch); shard 0 doubles as the serial evaluator.
  const std::size_t n_shards = intra_pool != nullptr ? intra_pool->size() : 1;
  std::vector<Evaluator> evs;
  evs.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) evs.emplace_back(net, graph, pool);

  // Support set of one side of an edge constraint given the other side.
  auto edge_support = [&](const EdgeConstraint& con,
                          bool from_left) -> Domain {
    const Domain& from =
        result.domains[from_left ? con.left_var : con.right_var];
    const Domain& to_shape =
        result.domains[from_left ? con.right_var : con.left_var];
    Domain support;
    for (const auto& [type, bits] : to_shape.sets) {
      support.sets.emplace(type, DynamicBitset(bits.size()));
    }
    const int con_index = static_cast<int>(&con - net.edges.data());
    std::vector<Traversal> traversals;
    for (const EdgeMove& move : con.moves) {
      const EdgeType& et = graph.edge_type(move.type);
      // move.forward: edge runs left->right. Walking from_left therefore
      // uses the forward CSR; walking from the right uses the reverse.
      const bool walk_forward = move.forward == from_left;
      const VertexTypeId from_type =
          walk_forward ? et.source_type() : et.target_type();
      const VertexTypeId to_type =
          walk_forward ? et.target_type() : et.source_type();
      auto from_it = from.sets.find(from_type);
      if (from_it == from.sets.end() || !support.sets.contains(to_type) ||
          !from_it->second.any()) {
        continue;
      }
      traversals.push_back({&et, to_type,
                            walk_forward ? &et.forward() : &et.reverse(),
                            &from_it->second});
    }
    expand_traversals(
        traversals, support, /*memo_failed=*/false, &result.stats, intra_pool,
        [&](std::size_t shard, const EdgeType& et, graph::EdgeIndex e) {
          if (con.self_conds.empty()) return true;
          evs[shard].set_edge(con_index, et.id(), e);
          return evs[shard].eval_all(con.self_conds);
        },
        [](std::size_t, VertexTypeId, VertexIndex) { return true; });
    return support;
  };

  // Constraint visit order: planner-supplied or natural.
  std::vector<int> visit;
  const std::size_t n_constraints =
      net.edges.size() + net.groups.size() + net.set_eqs.size();
  if (order != nullptr) {
    visit = *order;
    GEMS_CHECK(visit.size() == n_constraints);
  } else {
    visit.resize(n_constraints);
    for (std::size_t i = 0; i < n_constraints; ++i) {
      visit[i] = static_cast<int>(i);
    }
  }

  // Per-group closure cache. The fixpoint only terminates after a pass in
  // which no domain changed, so by convergence the cache necessarily holds
  // the closures of the *final* endpoint domains — the group-elements
  // section below re-requests them and always hits.
  struct ClosureCache {
    bool fwd_valid = false;
    bool bwd_valid = false;
    Domain fwd_in, fwd_out;
    Domain bwd_in, bwd_out;
  };
  std::vector<ClosureCache> closures(net.groups.size());

  auto cached_fwd = [&](std::size_t gi) -> Result<const Domain*> {
    const GroupConstraint& g = net.groups[gi];
    ClosureCache& cc = closures[gi];
    const Domain& in = result.domains[g.left_var];
    if (cc.fwd_valid && cc.fwd_in == in) return &cc.fwd_out;
    cc.fwd_valid = false;
    cc.fwd_in = in;
    GEMS_ASSIGN_OR_RETURN(
        cc.fwd_out,
        group_closure_forward(graph, pool, g, in, &result.stats, intra_pool));
    cc.fwd_valid = true;
    return &cc.fwd_out;
  };
  auto cached_bwd = [&](std::size_t gi) -> Result<const Domain*> {
    const GroupConstraint& g = net.groups[gi];
    ClosureCache& cc = closures[gi];
    const Domain& in = result.domains[g.right_var];
    if (cc.bwd_valid && cc.bwd_in == in) return &cc.bwd_out;
    cc.bwd_valid = false;
    cc.bwd_in = in;
    GEMS_ASSIGN_OR_RETURN(
        cc.bwd_out,
        group_closure_backward(graph, pool, g, in, &result.stats, intra_pool));
    cc.bwd_valid = true;
    return &cc.bwd_out;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.stats.propagation_passes;
    for (const int c : visit) {
      if (static_cast<std::size_t>(c) < net.edges.size()) {
        const EdgeConstraint& con = net.edges[c];
        Domain right_support = edge_support(con, /*from_left=*/true);
        changed |= result.domains[con.right_var].intersect(right_support);
        Domain left_support = edge_support(con, /*from_left=*/false);
        changed |= result.domains[con.left_var].intersect(left_support);
        continue;
      }
      std::size_t idx = static_cast<std::size_t>(c) - net.edges.size();
      if (idx < net.groups.size()) {
        const GroupConstraint& g = net.groups[idx];
        GEMS_ASSIGN_OR_RETURN(const Domain* fwd, cached_fwd(idx));
        changed |= result.domains[g.right_var].intersect(*fwd);
        GEMS_ASSIGN_OR_RETURN(const Domain* bwd, cached_bwd(idx));
        changed |= result.domains[g.left_var].intersect(*bwd);
        continue;
      }
      idx -= net.groups.size();
      const SetEqConstraint& se = net.set_eqs[idx];
      changed |= result.domains[se.var_a].intersect(result.domains[se.var_b]);
      changed |= result.domains[se.var_b].intersect(result.domains[se.var_a]);
    }
  }

  // ---- Matched edge sets (Eq. 5's E(q)) --------------------------------
  result.matched_edges = matched_edge_sets(net, graph, pool, result.domains,
                                           &result.stats, intra_pool);

  // ---- Group interior elements (for subgraph output) --------------------
  result.group_elements.reserve(net.groups.size());
  for (std::size_t gi = 0; gi < net.groups.size(); ++gi) {
    const GroupConstraint& g = net.groups[gi];
    Subgraph elements("group");
    // On-path boundary vertices: those both forward-reachable from the
    // left domain and backward-reachable from the right domain. The
    // closures of the converged domains are cache hits (see above), so
    // nothing is recomputed here.
    GEMS_ASSIGN_OR_RETURN(const Domain* fwd_ptr, cached_fwd(gi));
    GEMS_ASSIGN_OR_RETURN(const Domain* bwd_ptr, cached_bwd(gi));
    const Domain& fwd = *fwd_ptr;
    const Domain& bwd = *bwd_ptr;
    // Boundary vertices usable mid-path (between iterations).
    Domain boundary = fwd;
    boundary.intersect(bwd);
    boundary = domain_union(std::move(boundary),
                            [&] {
                              Domain d = result.domains[g.left_var];
                              d.intersect(bwd);
                              return d;
                            }());
    Domain end = result.domains[g.right_var];
    end.intersect(fwd);
    boundary = domain_union(std::move(boundary), end);

    // Mark interior: walk hops forward from the boundary set, culling each
    // position by its backward reachability toward the boundary.
    std::vector<Domain> fwd_pos(g.hops.size() + 1);
    fwd_pos[0] = boundary;
    for (std::size_t i = 0; i < g.hops.size(); ++i) {
      fwd_pos[i + 1] = expand_hop(graph, pool, g.hops[i], fwd_pos[i],
                                  &result.stats, intra_pool);
    }
    std::vector<Domain> bwd_pos(g.hops.size() + 1);
    bwd_pos[g.hops.size()] = boundary;
    for (std::size_t i = g.hops.size(); i-- > 0;) {
      const GroupHop* target = i == 0 ? nullptr : &g.hops[i - 1];
      bwd_pos[i] = expand_hop_back(graph, pool, g.hops[i], bwd_pos[i + 1],
                                   target, &result.stats, intra_pool);
    }
    for (std::size_t i = 0; i <= g.hops.size(); ++i) {
      Domain on_path = fwd_pos[i];
      on_path.intersect(bwd_pos[i]);
      for (const auto& [type, bits] : on_path.sets) {
        if (!bits.any()) continue;
        DynamicBitset& out =
            elements.vertices(type, graph.vertex_type(type).num_vertices());
        out |= bits;
      }
    }
    // Mark on-path edges per hop: CSR walk from the smaller on-path
    // endpoint set (never a full edge scan).
    for (std::size_t i = 0; i < g.hops.size(); ++i) {
      Domain from = fwd_pos[i];
      from.intersect(bwd_pos[i]);
      Domain to = fwd_pos[i + 1];
      to.intersect(bwd_pos[i + 1]);
      const GroupHop& hop = g.hops[i];
      auto mark_edges = [&](const EdgeType& et) -> void {
        const VertexTypeId cur_type =
            hop.reversed ? et.target_type() : et.source_type();
        const VertexTypeId next_type =
            hop.reversed ? et.source_type() : et.target_type();
        auto from_it = from.sets.find(cur_type);
        auto to_it = to.sets.find(next_type);
        if (from_it == from.sets.end() || to_it == to.sets.end()) return;
        DynamicBitset& out = elements.edges(et.id(), et.num_edges());
        const bool walk_from =
            from_it->second.count() <= to_it->second.count();
        // `from` holds the hop's origin position: with a reversed hop the
        // origin is the edge's *target*, so walking from it uses the
        // reverse index.
        const CsrIndex& index = (walk_from != hop.reversed) ? et.forward()
                                                            : et.reverse();
        const DynamicBitset& walk_bits =
            walk_from ? from_it->second : to_it->second;
        const DynamicBitset& other_bits =
            walk_from ? to_it->second : from_it->second;
        sharded_mark(
            walk_bits, out, &result.stats, intra_pool,
            [&](std::size_t, std::size_t wb, std::size_t we,
                DynamicBitset& mark, MatchStats* ms) {
              walk_bits.for_each_in_range(wb, we, [&](std::size_t v) {
                const auto neighbors =
                    index.neighbors(static_cast<VertexIndex>(v));
                const auto edge_ids =
                    index.edges(static_cast<VertexIndex>(v));
                for (std::size_t j = 0; j < neighbors.size(); ++j) {
                  if (ms != nullptr) ++ms->edge_traversals;
                  if (!other_bits.test(neighbors[j])) continue;
                  const graph::EdgeIndex e = edge_ids[j];
                  if (!hop.edge_conds.empty()) {
                    RowCursor cursor{et.attr_table(), e};
                    const std::span<const RowCursor> span(&cursor, 1);
                    bool ok = true;
                    for (const auto& cond : hop.edge_conds) {
                      if (!relational::eval_predicate(*cond, span, pool)) {
                        ok = false;
                        break;
                      }
                    }
                    if (!ok) continue;
                  }
                  mark.set(e);
                }
              });
            });
      };
      if (!hop.edge_types.empty()) {
        for (const EdgeTypeId id : hop.edge_types) {
          mark_edges(graph.edge_type(id));
        }
      } else {
        for (EdgeTypeId id = 0; id < graph.num_edge_types(); ++id) {
          mark_edges(graph.edge_type(id));
        }
      }
    }
    result.group_elements.push_back(std::move(elements));
  }

  return result;
}

// ---- Matcher observability ------------------------------------------------

void MatcherMetrics::record(const MatchStats& stats) {
  sync::MutexLock lock(mutex_);
  ++agg_.queries;
  agg_.propagation_passes += stats.propagation_passes;
  agg_.edge_traversals += stats.edge_traversals;
  agg_.parallel_tasks += stats.parallel_tasks;
  agg_.merge_ns += stats.merge_ns;
  agg_.worker_us.merge(stats.worker_us);
}

MatcherMetricsSnapshot MatcherMetrics::snapshot() const {
  sync::MutexLock lock(mutex_);
  return agg_;
}

}  // namespace gems::exec
