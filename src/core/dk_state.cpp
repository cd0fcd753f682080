#include "core/dk_state.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace orbis::dk {

namespace {

double clustering_weight(std::uint32_t degree) {
  if (degree < 2) return 0.0;
  return 2.0 / (static_cast<double>(degree) *
                static_cast<double>(degree - 1));
}

// Below this size journal_add coalesces inline with a linear scan (the
// common case: a swap between typical-degree endpoints touches a dozen
// bins); past it, entries are appended raw and DeltaJournal::coalesce
// sort-merges once, keeping hub endpoints with many distinct neighbor
// degrees off a quadratic path.
constexpr std::size_t kInlineCoalesceLimit = 48;

void journal_add(DeltaJournal::Map& map, std::uint64_t key,
                 std::int64_t delta) {
  if (map.size() < kInlineCoalesceLimit) {
    for (auto& entry : map) {
      if (entry.first == key) {
        entry.second += delta;
        if (entry.second == 0) {
          entry = map.back();
          map.pop_back();
        }
        return;
      }
    }
  }
  map.emplace_back(key, delta);
}

void coalesce_map(DeltaJournal::Map& map) {
  if (map.size() < kInlineCoalesceLimit) return;  // already coalesced
  std::sort(map.begin(), map.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < map.size();) {
    std::int64_t net = 0;
    std::size_t j = i;
    while (j < map.size() && map[j].first == map[i].first) {
      net += map[j].second;
      ++j;
    }
    if (net != 0) map[out++] = {map[i].first, net};
    i = j;
  }
  map.resize(out);
}

}  // namespace

void DeltaJournal::coalesce() {
  coalesce_map(wedge);
  coalesce_map(triangle);
}

DkState::DkState(const Graph& graph, TrackLevel level)
    : owned_(std::make_unique<EdgeIndex>(graph)), index_(owned_.get()) {
  init(level);
}

DkState::DkState(EdgeIndex& index, TrackLevel level)
    : owned_(nullptr), index_(&index) {
  init(level);
}

void DkState::init(TrackLevel level) {
  level_ = level;
  const NodeId n = index_->num_nodes();
  mark_.assign(n, 0);
  mark_stamp_ = 0;

  for (const auto& e : index_->edges()) {
    const std::uint32_t du = index_->degree(e.u);
    const std::uint32_t dv = index_->degree(e.v);
    jdd_.histogram().increment(util::pair_key(du, dv));
    s_ += static_cast<double>(du) * static_cast<double>(dv);
  }

  if (tracks_three_k()) {
    // The 3K extraction algorithms run on Graph; export the edge set
    // once (construction only — mutations never re-export).
    const Graph graph = index_->to_graph();
    if (tracks_histograms()) {
      three_k_ = ThreeKProfile::from_graph(graph);
      s2_ = three_k_.second_order_likelihood();
    } else {
      // Scalars-only: one-shot extraction for the S2 baseline; the
      // histograms are not retained.
      s2_ = ThreeKProfile::from_graph(graph).second_order_likelihood();
    }
    node_triangles_.assign(n, 0);
    // Per-node triangle counts: t_v = half the edges among N(v), found
    // by marking N(v) and sweeping each neighbor's row — flat scans, no
    // hash probes.
    for (NodeId v = 0; v < n; ++v) {
      const auto nbrs = index_->neighbors(v);
      if (nbrs.size() < 2) continue;
      const std::uint64_t stamp = ++mark_stamp_;
      for (const NodeId x : nbrs) mark_[x] = stamp;
      std::int64_t incidences = 0;
      for (const NodeId x : nbrs) {
        for (const NodeId w : index_->neighbors(x)) {
          if (mark_[w] == stamp) ++incidences;
        }
      }
      const std::int64_t count = incidences / 2;
      node_triangles_[v] = count;
      clustering_sum_ += static_cast<double>(count) *
                         clustering_weight(index_->degree(v));
    }
  }
}

double DkState::mean_clustering() const noexcept {
  if (index_->num_nodes() == 0) return 0.0;
  return clustering_sum_ / static_cast<double>(index_->num_nodes());
}

void DkState::bump_jdd(std::uint32_t k1, std::uint32_t k2,
                       std::int64_t delta) {
  const std::uint64_t key = util::pair_key(k1, k2);
  // The pre-bump count is only observable through a listener; skip the
  // extra histogram probe otherwise.
  const std::int64_t before = listener_ ? jdd_.histogram().count(key) : 0;
  jdd_.histogram().add(key, delta);
  if (listener_) listener_(BinKind::jdd, key, before, before + delta);
}

void DkState::bump_wedge(std::uint32_t end1, std::uint32_t center,
                         std::uint32_t end2, std::int64_t delta) {
  s2_ += static_cast<double>(delta) * static_cast<double>(end1) *
         static_cast<double>(end2);
  if (!tracks_histograms()) return;
  const std::uint64_t key = util::wedge_key(end1, center, end2);
  const std::int64_t before = listener_ ? three_k_.wedges().count(key) : 0;
  three_k_.wedges().add(key, delta);
  if (listener_) listener_(BinKind::wedge, key, before, before + delta);
}

void DkState::bump_triangle(std::uint32_t a, std::uint32_t b,
                            std::uint32_t c, std::int64_t delta) {
  if (!tracks_histograms()) return;
  const std::uint64_t key = util::triangle_key(a, b, c);
  const std::int64_t before =
      listener_ ? three_k_.triangles().count(key) : 0;
  three_k_.triangles().add(key, delta);
  if (listener_) listener_(BinKind::triangle, key, before, before + delta);
}

void DkState::bump_node_triangles(NodeId v, std::int64_t delta) {
  node_triangles_[v] += delta;
  util::ensures(node_triangles_[v] >= 0,
                "DkState: node triangle count went negative");
  clustering_sum_ += static_cast<double>(delta) *
                     clustering_weight(index_->degree(v));
}

void DkState::remove_edge(NodeId u, NodeId v) {
  util::expects(index_->has_edge(u, v), "DkState::remove_edge: no such edge");
  const std::uint32_t du = index_->degree(u);
  const std::uint32_t dv = index_->degree(v);

  if (tracks_three_k()) {
    // Scan BEFORE structural removal so adjacency still reflects the
    // edge.  One mark pass classifies every incident wedge/triangle in
    // O(deg u + deg v) with no hash lookups: stamp N(v), sweep N(u)
    // (common neighbor -> dying triangle, else a wedge centered at u
    // dies), then re-sweep N(v) — entries still carrying the first
    // stamp are non-common and lose their wedge centered at v.
    const std::uint64_t in_v = ++mark_stamp_;
    const std::uint64_t common = ++mark_stamp_;
    const auto u_nbrs = index_->neighbors(u);
    const auto v_nbrs = index_->neighbors(v);
    for (const NodeId y : v_nbrs) {
      if (y != u) mark_[y] = in_v;
    }
    for (const NodeId x : u_nbrs) {
      if (x == v) continue;
      const std::uint32_t dx = index_->degree(x);
      if (mark_[x] == in_v) {
        mark_[x] = common;
        // Triangle (u,v,x) dies; pair (u,v) at center x opens into a wedge.
        bump_triangle(du, dv, dx, -1);
        bump_wedge(du, dx, dv, +1);
        bump_node_triangles(u, -1);
        bump_node_triangles(v, -1);
        bump_node_triangles(x, -1);
      } else {
        // Wedge x - u - v (centered at u) dies with the edge.
        bump_wedge(dx, du, dv, -1);
      }
    }
    for (const NodeId y : v_nbrs) {
      if (y == u) continue;
      if (mark_[y] == in_v) {
        bump_wedge(index_->degree(y), dv, du, -1);
      }
      // Common neighbors already handled from u's side.
    }
  }

  bump_jdd(du, dv, -1);
  s_ -= static_cast<double>(du) * static_cast<double>(dv);
  index_->remove_edge(u, v);
}

void DkState::add_edge(NodeId u, NodeId v) {
  util::expects(u != v, "DkState::add_edge: self-loop");
  util::expects(!index_->has_edge(u, v), "DkState::add_edge: edge exists");
  // Checked here, before any histogram bump, so a violation cannot leave
  // the bookkeeping half-updated.
  util::expects(index_->current_degree(u) < index_->degree(u) &&
                    index_->current_degree(v) < index_->degree(v),
                "DkState::add_edge: node at frozen degree");
  const std::uint32_t du = index_->degree(u);
  const std::uint32_t dv = index_->degree(v);

  if (tracks_three_k()) {
    // Scan BEFORE structural insertion: x ranges over old neighbors
    // only.  Mirror image of the removal pass.
    const std::uint64_t in_v = ++mark_stamp_;
    const std::uint64_t common = ++mark_stamp_;
    const auto u_nbrs = index_->neighbors(u);
    const auto v_nbrs = index_->neighbors(v);
    for (const NodeId y : v_nbrs) mark_[y] = in_v;
    for (const NodeId x : u_nbrs) {
      const std::uint32_t dx = index_->degree(x);
      if (mark_[x] == in_v) {
        mark_[x] = common;
        // Wedge u - x - v closes into a triangle.
        bump_wedge(du, dx, dv, -1);
        bump_triangle(du, dv, dx, +1);
        bump_node_triangles(u, +1);
        bump_node_triangles(v, +1);
        bump_node_triangles(x, +1);
      } else {
        // New wedge x - u - v centered at u.
        bump_wedge(dx, du, dv, +1);
      }
    }
    for (const NodeId y : v_nbrs) {
      if (mark_[y] == in_v) {
        bump_wedge(index_->degree(y), dv, du, +1);
      }
    }
  }

  bump_jdd(du, dv, +1);
  s_ += static_cast<double>(du) * static_cast<double>(dv);
  index_->add_edge(u, v);
}

void DkState::evaluate_swap(NodeId a, NodeId b, NodeId c, NodeId d,
                            SwapDelta& out) const {
  evaluate_swap(a, b, c, d, out, scratch_);
}

// The swap (a,b),(c,d) -> (a,d),(c,b) as ONE net update, with
// A = N(a)\{b}, B = N(b)\{a}, C = N(c)\{d}, D = N(d)\{c} taken before it.
// Replaying its four single-edge mutations would write one entry per
// incident wedge and cancel nearly all of them; the net form writes:
//   * per common neighbor x of a mutated pair (u,v) — A∩B, C∩D (pairs
//     that lose their edge, sign -1) and A∩D, C∩B (sign +1):
//       T(ku,kv,kx) sign; W(ku,kx,kv), W(kx,ku,kv), W(kx,kv,ku) -sign;
//   * per degree class K whose member count differs between the two rows
//     whose partner changes: with kb = kd = k the arm wedges at a and c
//     cancel class for class, and the centers b, d leave
//       (n_B(K) - n_D(K)) * [W(K,k,kc) - W(K,k,ka)];
//     with ka = kc = k, mirrored: (n_A(K) - n_C(K)) * [W(K,k,kd) -
//     W(K,k,kb)].  If both equalities hold the class terms vanish.
// Only the intersections need membership tests: B and D are marked once,
// A and C scanned once, so each endpoint row is read exactly once.
void DkState::evaluate_swap(NodeId a, NodeId b, NodeId c, NodeId d,
                            SwapDelta& out, EvalScratch& scratch) const {
  util::expects(tracks_three_k(),
                "DkState::evaluate_swap: requires 3K tracking");
  const EdgeIndex& index = *index_;
  const std::uint32_t ka = index.degree(a);
  const std::uint32_t kb = index.degree(b);
  const std::uint32_t kc = index.degree(c);
  const std::uint32_t kd = index.degree(d);
  util::expects(kb == kd || ka == kc,
                "DkState::evaluate_swap: swap must preserve the JDD");
  if (scratch.mark.size() < index.num_nodes()) {
    scratch.mark.assign(index.num_nodes(), 0);
    // Stale marks never alias fresh zeros: the stamp only grows.
  }
  if (scratch.class_net.size() < index.num_classes()) {
    scratch.class_net.assign(index.num_classes(), 0);
  }
  out.clear();
  out.a = a;
  out.b = b;
  out.c = c;
  out.d = d;
  const bool histograms = tracks_histograms();
  std::int64_t s2 = 0;  // exact integer; converted once at the end

  // One common neighbor x of (u,v): a triangle dies (sign -1) or is born
  // (+1).  Events and clustering_delta accumulate in causal order — the
  // pairs' order in the swap, each in its first endpoint's row order —
  // so the double sum is the same whichever way the rows were read.
  const auto common = [&](NodeId u, std::uint32_t ku, NodeId v,
                          std::uint32_t kv, NodeId x, std::int32_t sign) {
    const std::uint32_t kx = index.degree(x);
    if (histograms) {
      journal_add(out.journal.triangle, util::triangle_key(ku, kv, kx), sign);
      journal_add(out.journal.wedge, util::wedge_key(ku, kx, kv), -sign);
      journal_add(out.journal.wedge, util::wedge_key(kx, ku, kv), -sign);
      journal_add(out.journal.wedge, util::wedge_key(kx, kv, ku), -sign);
    }
    const std::int64_t u64 = ku, v64 = kv, x64 = kx;
    s2 -= sign * (u64 * v64 + x64 * (u64 + v64));
    out.triangle_nodes.emplace_back(u, sign);
    out.triangle_nodes.emplace_back(v, sign);
    out.triangle_nodes.emplace_back(x, sign);
    out.clustering_delta +=
        static_cast<double>(sign) *
        (clustering_weight(ku) + clustering_weight(kv) +
         clustering_weight(kx));
  };

  // Class-net counting runs over B/D when only kb = kd holds, over A/C
  // when only ka = kc holds, and not at all when both do.
  const bool count_bd = kb == kd && ka != kc;
  const bool count_ac = ka == kc && kb != kd;
  auto& class_net = scratch.class_net;
  auto& touched = scratch.touched;
  touched.clear();
  const auto count = [&](NodeId v, std::int32_t delta) {
    const std::uint32_t cls = index.node_class(v);
    // A class may re-enter the list after returning to zero; the
    // emission loop zeroes each entry as it reads it, so repeats are
    // inert.
    if (class_net[cls] == 0) touched.push_back(cls);
    class_net[cls] += delta;
  };

  // Marks carry the evaluation's tag in the high bits and membership in
  // B and D in the low two, so one stamp serves both sets.
  constexpr std::uint64_t in_b = 1;
  constexpr std::uint64_t in_d = 2;
  constexpr std::uint64_t tag_mask = ~std::uint64_t{3};
  auto& mark = scratch.mark;
  const std::uint64_t tag = ++scratch.stamp << 2;
  for (const NodeId y : index.neighbors(b)) {
    if (y == a) continue;
    mark[y] = tag | in_b;
    if (count_bd) count(y, +1);
  }
  for (const NodeId y : index.neighbors(d)) {
    if (y == c) continue;
    const std::uint64_t m = mark[y];
    mark[y] = ((m & tag_mask) == tag ? m : tag) | in_d;
    if (count_bd) count(y, -1);
  }

  // A∩B and C∩D are emitted as found; A∩D and C∩B come after both, in
  // their rows' order.
  auto& born_a = scratch.common_ad;
  auto& born_c = scratch.common_cb;
  born_a.clear();
  born_c.clear();
  for (const NodeId x : index.neighbors(a)) {
    if (x == b) continue;
    const std::uint64_t m = mark[x];
    if ((m & tag_mask) == tag) {
      if ((m & in_b) != 0) common(a, ka, b, kb, x, -1);
      if ((m & in_d) != 0) born_a.push_back(x);
    }
    if (count_ac) count(x, +1);
  }
  for (const NodeId x : index.neighbors(c)) {
    if (x == d) continue;
    const std::uint64_t m = mark[x];
    if ((m & tag_mask) == tag) {
      if ((m & in_d) != 0) common(c, kc, d, kd, x, -1);
      if ((m & in_b) != 0) born_c.push_back(x);
    }
    if (count_ac) count(x, -1);
  }
  for (const NodeId x : born_a) common(a, ka, d, kd, x, +1);
  for (const NodeId x : born_c) common(c, kc, b, kb, x, +1);

  // Centers whose partner's class moves from `from` to `to`.
  const std::uint32_t center = count_bd ? kb : ka;
  const std::uint32_t from = count_bd ? ka : kb;
  const std::uint32_t to = count_bd ? kc : kd;
  for (const std::uint32_t cls : touched) {
    const std::int32_t net = class_net[cls];
    class_net[cls] = 0;
    if (net == 0) continue;
    const std::uint32_t k = index.class_degree(cls);
    if (histograms) {
      journal_add(out.journal.wedge, util::wedge_key(k, center, to), net);
      journal_add(out.journal.wedge, util::wedge_key(k, center, from), -net);
    }
    s2 += static_cast<std::int64_t>(net) * k *
          (static_cast<std::int64_t>(to) - static_cast<std::int64_t>(from));
  }
  out.s2_delta = static_cast<double>(s2);
  // No-op below the inline-coalesce limit; one O(k log k) sort-merge
  // when a hub endpoint overflowed it.
  out.journal.coalesce();
}

void DkState::commit_swap(const SwapDelta& delta) {
  // The JDD bin moves of a 2K-preserving swap cancel exactly, and S is a
  // function of the JDD — both stay untouched.
  util::expects(
      index_->degree(delta.b) == index_->degree(delta.d) ||
          index_->degree(delta.a) == index_->degree(delta.c),
      "DkState::commit_swap: swap must preserve the JDD");
  if (tracks_histograms()) {
    for (const auto& [key, net] : delta.journal.wedge) {
      three_k_.wedges().add(key, net);
    }
    for (const auto& [key, net] : delta.journal.triangle) {
      three_k_.triangles().add(key, net);
    }
  }
  s2_ += delta.s2_delta;
  clustering_sum_ += delta.clustering_delta;
  for (const auto& [node, net] : delta.triangle_nodes) {
    node_triangles_[node] += net;
    util::ensures(node_triangles_[node] >= 0,
                  "DkState: node triangle count went negative");
  }
  index_->apply_swap(delta.a, delta.b, delta.c, delta.d);
}

void DkState::verify_consistency() const {
  const Graph graph = to_graph();
  const auto fresh_jdd = JointDegreeDistribution::from_graph(graph);
  util::ensures(fresh_jdd == jdd_, "DkState: JDD diverged from recount");
  double fresh_s = 0.0;
  for (const auto& e : graph.edges()) {
    fresh_s += static_cast<double>(graph.degree(e.u)) *
               static_cast<double>(graph.degree(e.v));
  }
  util::ensures(std::fabs(fresh_s - s_) < 1e-6 * (1.0 + std::fabs(s_)),
                "DkState: likelihood S diverged from recount");
  if (tracks_three_k()) {
    const auto fresh_3k = ThreeKProfile::from_graph(graph);
    if (tracks_histograms()) {
      util::ensures(fresh_3k == three_k_,
                    "DkState: 3K profile diverged from recount");
    }
    const double fresh_s2 = fresh_3k.second_order_likelihood();
    util::ensures(std::fabs(fresh_s2 - s2_) <
                      1e-6 * (1.0 + std::fabs(s2_)),
                  "DkState: S2 diverged from recount");
  }
}

}  // namespace orbis::dk
