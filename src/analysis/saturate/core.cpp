#include "analysis/saturate/core.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <iterator>
#include <set>
#include <unordered_set>

namespace vermem::saturate {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

constexpr std::uint64_t bit(std::uint32_t node) noexcept {
  return std::uint64_t{1} << node;
}

/// One write of the address, keyed for the value -> writers lookup.
struct Writer {
  Value value = 0;
  std::uint32_t node = 0;
};

/// Candidate write set of a read: a node list for the reference graph,
/// one bit per node for the closure kernel. Both expose the same
/// container surface, so the driver is written once.
using NodeList = std::vector<std::uint32_t>;

struct NodeMask {
  std::uint64_t bits = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(bits));
  }
  [[nodiscard]] bool empty() const noexcept { return bits == 0; }
  [[nodiscard]] std::uint32_t front() const noexcept {
    return static_cast<std::uint32_t>(std::countr_zero(bits));
  }
  void reserve(std::size_t /*unused*/) noexcept {}
  void push_back(std::uint32_t node) noexcept { bits |= bit(node); }
};

/// One read obligation (a pure read or the read half of an RMW),
/// tracked until pinned, pruned empty, or given up on.
template <class Cands>
struct ReadItem {
  OpRef ref;                 ///< original coordinates
  Value value = 0;
  std::uint32_t xm = kNone;  ///< last write node program-order-before
  std::uint32_t nx = kNone;  ///< first write node program-order-after
                             ///< (an RMW's own write half counts)
  bool init_cand = false;    ///< may observe the initial value
  bool resolved = false;
  Cands cand;                ///< remaining candidate write nodes
};

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Finds a directed cycle by iterative coloring DFS; returns nodes
/// w0..wk-1 with edges wi -> w(i+1 mod k), or empty if acyclic.
std::vector<std::uint32_t> first_cycle(
    const std::vector<std::vector<std::uint32_t>>& fwd) {
  const auto n = static_cast<std::uint32_t>(fwd.size());
  std::vector<std::uint8_t> color(n, 0);  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::uint32_t> parent(n, kNone);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    stack.clear();
    stack.emplace_back(root, 0);
    color[root] = 1;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back().first;
      if (stack.back().second < fwd[u].size()) {
        const std::uint32_t v = fwd[u][stack.back().second++];
        if (color[v] == 0) {
          color[v] = 1;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (color[v] == 1) {
          // Back edge u -> v: the tree path v ->* u closes the cycle.
          std::vector<std::uint32_t> cycle;
          for (std::uint32_t x = u; x != v; x = parent[x]) cycle.push_back(x);
          cycle.push_back(v);
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
      } else {
        color[u] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

/// Records one Kahn step with `concurrent` ready writes, the lowest two
/// being `first` and `second`; false when the step branches.
bool unique_step(Result& res, std::uint32_t concurrent, std::uint32_t first,
                 std::uint32_t second) {
  res.max_concurrent = std::max(res.max_concurrent, concurrent);
  if (concurrent < 2) return true;
  if (++res.branch_points == 1) res.unordered_example = {first, second};
  return false;
}

// ---- Reference graph: adjacency lists + SCC condensation + DFS. --------

/// SCC condensation of the direct-edge graph. R2 reachability queries
/// walk the component DAG instead of the raw graph, so a strongly
/// connected cluster — which exists transiently within a round, after a
/// cycle-closing R1 pin and before the post-round cycle check refutes
/// the address — costs one component visit instead of a re-tour of the
/// whole cluster, and parallel edges between clusters deduplicate away.
struct Condensation {
  std::vector<std::uint32_t> comp;  ///< node -> component id
  std::vector<std::vector<std::uint32_t>> fwd;  ///< component DAG
  std::vector<std::vector<std::uint32_t>> rev;
  std::uint32_t num = 0;

  void build(const std::vector<std::vector<std::uint32_t>>& graph,
             const Edges& edges) {
    const auto n = static_cast<std::uint32_t>(graph.size());
    comp.assign(n, kNone);
    num = 0;
    // Iterative Tarjan: `frame.second` is the edge cursor, doubling as
    // the first-visit flag (cursor 0 = not yet numbered).
    std::vector<std::uint32_t> index(n, kNone);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<std::uint8_t> on_stack(n, 0);
    std::vector<std::uint32_t> scc_stack;
    std::vector<std::pair<std::uint32_t, std::size_t>> call;
    std::uint32_t next_index = 0;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (index[root] != kNone) continue;
      call.emplace_back(root, 0);
      while (!call.empty()) {
        const std::uint32_t u = call.back().first;
        if (index[u] == kNone) {
          index[u] = low[u] = next_index++;
          scc_stack.push_back(u);
          on_stack[u] = 1;
        }
        if (call.back().second < graph[u].size()) {
          const std::uint32_t v = graph[u][call.back().second++];
          if (index[v] == kNone)
            call.emplace_back(v, 0);
          else if (on_stack[v])
            low[u] = std::min(low[u], index[v]);
        } else {
          if (low[u] == index[u]) {
            while (true) {
              const std::uint32_t v = scc_stack.back();
              scc_stack.pop_back();
              on_stack[v] = 0;
              comp[v] = num;
              if (v == u) break;
            }
            ++num;
          }
          call.pop_back();
          if (!call.empty()) {
            const std::uint32_t p = call.back().first;
            low[p] = std::min(low[p], low[u]);
          }
        }
      }
    }
    fwd.assign(num, {});
    rev.assign(num, {});
    std::unordered_set<std::uint64_t> keys;
    for (const auto& [a, b] : edges) {
      const std::uint32_t ca = comp[a];
      const std::uint32_t cb = comp[b];
      if (ca == cb) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(ca) << 32) | cb;
      if (!keys.insert(key).second) continue;
      fwd[ca].push_back(cb);
      rev[cb].push_back(ca);
    }
  }
};

/// Budgeted DFS: stamps every node reachable from `from` (inclusive)
/// with `epoch`. An exhausted budget leaves the marking partial, which
/// only under-approximates reachability — R2 pruning stays sound.
bool mark_reachable(const std::vector<std::vector<std::uint32_t>>& adj,
                    std::uint32_t from, std::vector<std::uint32_t>& stamp,
                    std::uint32_t epoch, std::vector<std::uint32_t>& stack,
                    std::uint64_t& budget) {
  stack.clear();
  stack.push_back(from);
  stamp[from] = epoch;
  while (!stack.empty()) {
    if (budget == 0) return false;
    --budget;
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const std::uint32_t v : adj[u]) {
      if (stamp[v] == epoch) continue;
      stamp[v] = epoch;
      stack.push_back(v);
    }
  }
  return true;
}

/// Direct-edge graph for any write count. R2 queries run budgeted DFS
/// on the SCC condensation, rebuilt on the first query after an edge
/// was added.
class ReferenceGraph {
 public:
  using Cands = NodeList;

  Edges edges;  ///< deduplicated, in insertion order

  explicit ReferenceGraph(std::uint32_t n) : fwd_(n) {}

  bool add(std::uint32_t a, std::uint32_t b) {
    if (a == b) return false;
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (!keys_.insert(key).second) return false;
    edges.emplace_back(a, b);
    fwd_[a].push_back(b);
    dirty_ = true;
    return true;
  }

  [[nodiscard]] std::vector<std::uint32_t> find_cycle() const {
    return first_cycle(fwd_);
  }

  /// R2 on one read; true iff a candidate was dropped.
  bool prune(ReadItem<Cands>& item, std::uint64_t& budget, Result& res) {
    if (dirty_) {
      cond_.build(fwd_, edges);
      ++res.scc_builds;
      res.scc_components = cond_.num;
      stamp_.assign(cond_.num, 0);
      epoch_ = 0;
      dirty_ = false;
    }
    std::uint32_t anc_epoch = 0;
    std::uint32_t desc_epoch = 0;
    if (item.xm != kNone) {
      anc_epoch = ++epoch_;
      ++res.reach_queries;
      if (!mark_reachable(cond_.rev, cond_.comp[item.xm], stamp_, anc_epoch,
                          scratch_, budget))
        res.budget_hit = true;
    }
    if (item.nx != kNone) {
      desc_epoch = ++epoch_;
      ++res.reach_queries;
      if (!mark_reachable(cond_.fwd, cond_.comp[item.nx], stamp_, desc_epoch,
                          scratch_, budget))
        res.budget_hit = true;
    }
    const std::size_t before = item.cand.size();
    std::erase_if(item.cand, [&](std::uint32_t c) {
      // c ->* xm with c != xm: c is overwritten before the read (a
      // candidate sharing xm's component is in a cycle with it, so
      // c ->* xm holds there too).
      if (anc_epoch != 0 && c != item.xm && stamp_[cond_.comp[c]] == anc_epoch)
        return true;
      // nx ->* c: c lands after the read.
      return desc_epoch != 0 && stamp_[cond_.comp[c]] == desc_epoch;
    });
    return item.cand.size() != before;
  }

  /// Kahn's pass (the graph is acyclic): appends the order to
  /// res.forced; true iff every step had a unique ready write.
  bool topo_order(Result& res) const {
    const auto n = static_cast<std::uint32_t>(fwd_.size());
    std::vector<std::uint32_t> indeg(n, 0);
    for (const auto& [a, b] : edges) ++indeg[b];
    std::set<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < n; ++i)
      if (indeg[i] == 0) ready.insert(i);
    bool total_order = true;
    res.forced.reserve(n);
    while (!ready.empty()) {
      const std::uint32_t u = *ready.begin();
      const std::uint32_t second =
          ready.size() > 1 ? *std::next(ready.begin()) : kNone;
      if (!unique_step(res, static_cast<std::uint32_t>(ready.size()), u, second))
        total_order = false;
      ready.erase(ready.begin());
      res.forced.push_back(u);
      for (const std::uint32_t v : fwd_[u])
        if (--indeg[v] == 0) ready.insert(v);
    }
    return total_order;
  }

 private:
  std::vector<std::vector<std::uint32_t>> fwd_;
  std::unordered_set<std::uint64_t> keys_;
  Condensation cond_;
  bool dirty_ = true;  // edges added since the last condensation build
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> scratch_;
};

// ---- Closure kernel: word-parallel transitive closure, <= 64 writes. ---

/// Every node keeps masks of its direct successors/predecessors and of
/// its transitive descendants/ancestors (a node is its own descendant
/// iff it lies on a cycle). Allocates nothing but the edge list.
class ClosureGraph {
 public:
  using Cands = NodeMask;

  Edges edges;  ///< deduplicated, in insertion order

  explicit ClosureGraph(std::uint32_t n) : n_(n) {
    assert(n <= kClosureMaxWrites);
  }

  bool add(std::uint32_t a, std::uint32_t b) {
    if (a == b || (succ_[a] & bit(b)) != 0) return false;
    edges.emplace_back(a, b);
    succ_[a] |= bit(b);
    pred_[b] |= bit(a);
    dirty_ = true;
    if ((desc_[a] & bit(b)) == 0) {
      // New paths are exactly up ->* a -> b ->* down.
      const std::uint64_t up = anc_[a] | bit(a);
      const std::uint64_t down = desc_[b] | bit(b);
      for (std::uint64_t m = up; m != 0; m &= m - 1)
        desc_[std::countr_zero(m)] |= down;
      for (std::uint64_t m = down; m != 0; m &= m - 1)
        anc_[std::countr_zero(m)] |= up;
      if ((desc_[a] & bit(a)) != 0) cyclic_ = true;
    }
    return true;
  }

  [[nodiscard]] std::vector<std::uint32_t> find_cycle() const {
    if (!cyclic_) return {};
    // Terminal and rare: rebuild the insertion-ordered adjacency so the
    // reported cycle is the one the reference DFS finds.
    std::vector<std::vector<std::uint32_t>> fwd(n_);
    for (const auto& [a, b] : edges) fwd[a].push_back(b);
    return first_cycle(fwd);
  }

  /// R2 on one read; true iff a candidate was dropped.
  bool prune(ReadItem<Cands>& item, std::uint64_t& budget, Result& res) {
    if (dirty_) {
      // Stands in for the reference's condensation rebuild: one
      // representative (its lowest node) per strongly connected component.
      reps_ = 0;
      for (std::uint32_t i = 0; i < n_; ++i) {
        const std::uint64_t scc = (desc_[i] & anc_[i]) | bit(i);
        if (static_cast<std::uint32_t>(std::countr_zero(scc)) == i)
          reps_ |= bit(i);
      }
      ++res.scc_builds;
      res.scc_components = static_cast<std::uint32_t>(std::popcount(reps_));
      dirty_ = false;
    }
    std::uint64_t drop = 0;
    if (item.xm != kNone) {
      const std::uint64_t above = anc_[item.xm] | bit(item.xm);
      charge(above, budget, res);
      drop |= above & ~bit(item.xm);
    }
    if (item.nx != kNone) {
      const std::uint64_t below = desc_[item.nx] | bit(item.nx);
      charge(below, budget, res);
      drop |= below;
    }
    const std::uint64_t before = item.cand.bits;
    item.cand.bits &= ~drop;
    return item.cand.bits != before;
  }

  /// Kahn's pass (the graph is acyclic): appends the order to
  /// res.forced; true iff every step had a unique ready write.
  bool topo_order(Result& res) const {
    std::uint64_t ready = 0;
    for (std::uint32_t i = 0; i < n_; ++i)
      if (pred_[i] == 0) ready |= bit(i);
    std::uint64_t done = 0;
    bool total_order = true;
    res.forced.reserve(n_);
    while (ready != 0) {
      const auto u = static_cast<std::uint32_t>(std::countr_zero(ready));
      const std::uint64_t rest = ready & (ready - 1);
      const std::uint32_t second =
          rest != 0 ? static_cast<std::uint32_t>(std::countr_zero(rest)) : kNone;
      if (!unique_step(res, static_cast<std::uint32_t>(std::popcount(ready)),
                       u, second))
        total_order = false;
      ready = rest;
      done |= bit(u);
      res.forced.push_back(u);
      for (std::uint64_t m = succ_[u]; m != 0; m &= m - 1) {
        const auto v = static_cast<std::uint32_t>(std::countr_zero(m));
        if ((pred_[v] & ~done) == 0) ready |= bit(v);
      }
    }
    return total_order;
  }

 private:
  /// Charges one R2 query what the reference DFS would visit: the
  /// components inside `reach`. Past the budget the answer stays exact
  /// (hence sound) but the reference's partial marking is not replayed.
  void charge(std::uint64_t reach, std::uint64_t& budget, Result& res) const {
    ++res.reach_queries;
    const auto visits = static_cast<std::uint64_t>(std::popcount(reach & reps_));
    if (visits > budget) {
      budget = 0;
      res.budget_hit = true;
    } else {
      budget -= visits;
    }
  }

  std::uint32_t n_;
  std::array<std::uint64_t, kClosureMaxWrites> succ_{};
  std::array<std::uint64_t, kClosureMaxWrites> pred_{};
  std::array<std::uint64_t, kClosureMaxWrites> desc_{};
  std::array<std::uint64_t, kClosureMaxWrites> anc_{};
  std::uint64_t reps_ = 0;  // SCC representatives as of the last refresh
  bool dirty_ = true;       // edges added since the last refresh
  bool cyclic_ = false;
};

// ---- The driver: seeding, read obligations, fixpoint, forced order. ----

template <class Graph>
Result derive(const ProjectedView& view, const Options& options) {
  Result res;
  const Value initial = view.initial_value();
  const std::size_t num_h = view.num_histories();

  // ---- Node table: writes sorted by (history, position); history h
  // owns the consecutive nodes [first_node[h], first_node[h + 1]). ----
  const std::size_t num_writes = view.stats().write_count;
  res.writes.reserve(num_writes);
  res.writes_local.reserve(num_writes);
  std::vector<std::uint32_t> first_node(num_h + 1, 0);
  std::vector<Writer> writers;
  writers.reserve(num_writes);
  for (std::size_t h = 0; h < num_h; ++h) {
    first_node[h] = static_cast<std::uint32_t>(res.writes.size());
    const auto refs = view.history_refs(h);
    for (std::uint32_t j = 0; j < refs.size(); ++j) {
      const Operation& op = view.op(refs[j]);
      if (!op.writes_memory()) continue;
      const auto id = static_cast<std::uint32_t>(res.writes.size());
      res.writes.push_back(refs[j]);
      res.writes_local.push_back(OpRef{static_cast<std::uint32_t>(h), j});
      writers.push_back(Writer{op.value_written, id});
    }
  }
  const auto w = static_cast<std::uint32_t>(res.writes.size());
  first_node[num_h] = w;
  // One bucket per value, each sorted by node, i.e. by (history, position).
  std::sort(writers.begin(), writers.end(),
            [](const Writer& a, const Writer& b) {
              return a.value != b.value ? a.value < b.value : a.node < b.node;
            });
  const auto bucket_of = [&](Value value) {
    return std::ranges::equal_range(writers, value, {}, &Writer::value);
  };

  Graph graph(w);

  // ---- Seeds: program order (consecutive same-history writes). ----
  for (std::size_t h = 0; h < num_h; ++h)
    for (std::uint32_t id = first_node[h]; id + 1 < first_node[h + 1]; ++id)
      graph.add(id, id + 1);

  // ---- Seeds: final-value pin. ----
  if (const auto fin = view.final_value()) {
    const auto bucket = bucket_of(*fin);
    if (bucket.empty()) {
      if (w > 0 || *fin != initial) {
        res.status = Status::kContradiction;
        res.contradiction = Contradiction{ContradictionKind::kUnwritableFinal,
                                          OpRef{}, OpRef{}, *fin};
        return res;
      }
    } else if (bucket.size() == 1) {
      // The unique write of the final value is last: it follows the
      // last write of every other history (transitivity covers the
      // rest of each chain).
      const std::uint32_t wf = bucket.front().node;
      for (std::size_t h = 0; h < num_h; ++h)
        if (first_node[h + 1] > first_node[h])
          graph.add(first_node[h + 1] - 1, wf);
    }
  }

  // ---- Read obligations + trace-level dead ends. ----
  std::vector<ReadItem<typename Graph::Cands>> reads;
  reads.reserve(view.num_ops());
  for (std::size_t h = 0; h < num_h; ++h) {
    const auto refs = view.history_refs(h);
    std::uint32_t next_node = first_node[h];  // next write node of h
    std::uint32_t last_write = kNone;
    for (std::uint32_t j = 0; j < refs.size(); ++j) {
      const Operation& op = view.op(refs[j]);
      const std::uint32_t self = op.writes_memory() ? next_node++ : kNone;
      if (!op.reads_memory()) {
        if (self != kNone) last_write = self;
        continue;
      }
      ReadItem<typename Graph::Cands> item;
      item.ref = refs[j];
      item.value = op.value_read;
      item.xm = last_write;
      // An RMW's own write half is the first write after the read half.
      item.nx = self != kNone                   ? self
                : next_node < first_node[h + 1] ? next_node
                                                : kNone;
      item.init_cand = item.value == initial && item.xm == kNone;
      const auto bucket = bucket_of(item.value);
      if (!bucket.empty()) {
        // Excluded candidates — the RMW itself and own program-order-future
        // writes — are exactly the bucket's nodes in [cut, first_node[h+1]),
        // one contiguous block of the node-sorted bucket. Counting
        // survivors by binary search first keeps hot values (thousands of
        // same-value writes, every read about to be discarded as
        // untracked anyway) at O(log) per read instead of an O(bucket)
        // walk that made contended traces quadratic.
        const std::uint32_t cut = self != kNone ? self : next_node;
        const auto excl_begin = std::ranges::partition_point(
            bucket, [&](const Writer& x) { return x.node < cut; });
        const auto excl_end = std::partition_point(
            excl_begin, bucket.end(),
            [&](const Writer& x) { return x.node < first_node[h + 1]; });
        const std::size_t keep =
            bucket.size() - static_cast<std::size_t>(excl_end - excl_begin);
        if (keep > options.max_tracked_candidates) {
          // Effectively unconstrained wide reads are not worth tracking.
          if (self != kNone) last_write = self;
          continue;
        }
        item.cand.reserve(keep);
        for (auto it = bucket.begin(); it != excl_begin; ++it)
          item.cand.push_back(it->node);
        for (auto it = excl_end; it != bucket.end(); ++it)
          item.cand.push_back(it->node);
      }
      if (self != kNone) last_write = self;  // RMW advances program order
      if (item.cand.empty() && !item.init_cand) {
        if (bucket.empty()) {
          res.status = Status::kContradiction;
          if (item.value == initial) {
            // Only the earlier same-process write blocks the initial value.
            res.contradiction =
                Contradiction{ContradictionKind::kStaleInitialRead, item.ref,
                              res.writes[item.xm], item.value};
          } else {
            res.contradiction = Contradiction{ContradictionKind::kUnwrittenRead,
                                              item.ref, OpRef{}, item.value};
          }
          return res;
        }
        if (bucket.size() == 1 && bucket.front().node != self) {
          // The unique write of the value follows the read in po.
          res.status = Status::kContradiction;
          res.contradiction =
              Contradiction{ContradictionKind::kReadBeforeWrite, item.ref,
                            res.writes[bucket.front().node], item.value};
          return res;
        }
        // Every write of the value is excluded by program order (or an
        // RMW consumes the value only it produces): incoherent, but
        // certifiable only by the fallback decider.
        res.pruned_empty_read = true;
        continue;
      }
      reads.push_back(std::move(item));
    }
  }

  // ---- Seeds alone can already be cyclic (final pin vs po). ----
  if (auto cyc = graph.find_cycle(); !cyc.empty()) {
    res.status = Status::kCycle;
    res.cycle = std::move(cyc);
    res.edges = std::move(graph.edges);
    return res;
  }

  // ---- Fixpoint: R2 pruning + R1 pinning until nothing changes. ----
  std::uint64_t budget = options.reach_budget;
  bool changed = true;
  while (changed && res.rounds < options.max_rounds) {
    changed = false;
    ++res.rounds;
    for (auto& item : reads) {
      if (item.resolved) continue;
      const std::size_t total = item.cand.size() + (item.init_cand ? 1 : 0);
      if (total == 0) {
        // R2 emptied the candidate set: no coherent source exists, but
        // only the fallback decider can certify the refutation.
        res.pruned_empty_read = true;
        item.resolved = true;
        continue;
      }
      if (total == 1) {
        item.resolved = true;
        if (item.init_cand) continue;  // observes the initial value
        const std::uint32_t s = item.cand.front();
        if (item.xm != kNone && item.xm != s && graph.add(item.xm, s))
          changed = true;
        if (item.nx != kNone && item.nx != s && graph.add(s, item.nx))
          changed = true;
        continue;
      }
      if (item.xm == kNone && item.nx == kNone) {
        item.resolved = true;  // R2 has no anchor; nothing derivable
        continue;
      }
      if (budget == 0) {
        res.budget_hit = true;
        continue;
      }
      if (graph.prune(item, budget, res)) changed = true;
    }
    if (changed) {
      if (auto cyc = graph.find_cycle(); !cyc.empty()) {
        res.status = Status::kCycle;
        res.cycle = std::move(cyc);
        res.edges = std::move(graph.edges);
        return res;
      }
    }
  }
  if (changed) res.budget_hit = true;  // round cap stopped the fixpoint

  // ---- Forced-total detection. No cycle (checked above), so Kahn
  // consumes every node. With a unique ready node at every step the
  // derived partial order has a unique linear extension: any coherent
  // write order must equal it. ----
  if (graph.topo_order(res)) {
    res.status = Status::kForcedTotal;
  } else {
    res.status = Status::kPartial;
    res.forced.clear();
  }
  res.edges = std::move(graph.edges);
  return res;
}

}  // namespace

Result saturate(const ProjectedView& view, const Options& options) {
  if (view.stats().write_count <= kClosureMaxWrites)
    return derive<ClosureGraph>(view, options);
  return derive<ReferenceGraph>(view, options);
}

Result saturate_reference(const ProjectedView& view, const Options& options) {
  return derive<ReferenceGraph>(view, options);
}

bool reaches(const Result& result, std::uint32_t a, std::uint32_t b) {
  const auto n = static_cast<std::uint32_t>(result.writes.size());
  if (a >= n || b >= n || a == b) return false;
  std::vector<std::vector<std::uint32_t>> fwd(n);
  for (const auto& [x, y] : result.edges) fwd[x].push_back(y);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::uint32_t> stack{a};
  seen[a] = 1;
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const std::uint32_t v : fwd[u]) {
      if (v == b) return true;
      if (seen[v]) continue;
      seen[v] = 1;
      stack.push_back(v);
    }
  }
  return false;
}

}  // namespace vermem::saturate
