#include "core/rple.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <unordered_set>

#include "core/rge.h"  // SealRank / OpenSeal

namespace rcloak::core {

namespace {

using roadnet::Index;
using roadnet::kInvalidSegment;
using roadnet::RoadNetwork;
using roadnet::SpatialIndex;

// Per-segment link candidates: graph-adjacent segments first (cloaking
// should stay road-continuous), then spatially nearest others; both groups
// ordered by midpoint distance with id tiebreak.
std::vector<SegmentId> LinkCandidates(const RoadNetwork& net,
                                      const SpatialIndex& index, SegmentId s,
                                      std::size_t want) {
  const geo::Point mid = net.SegmentMidpoint(s);
  auto by_distance = [&](SegmentId x, SegmentId y) {
    const double dx = geo::DistanceSquared(net.SegmentMidpoint(x), mid);
    const double dy = geo::DistanceSquared(net.SegmentMidpoint(y), mid);
    if (dx != dy) return dx < dy;
    return Index(x) < Index(y);
  };

  std::vector<SegmentId> out = net.AdjacentSegments(s);
  std::sort(out.begin(), out.end(), by_distance);
  if (out.size() < want) {
    // Over-fetch: nearest() includes s itself and the adjacent ones.
    std::unordered_set<std::uint32_t> chosen;
    chosen.reserve(out.size());
    for (SegmentId sid : out) chosen.insert(Index(sid));
    const auto near = index.Nearest(mid, want + out.size() + 1);
    for (SegmentId cand : near) {
      if (cand == s) continue;
      if (chosen.contains(Index(cand))) continue;
      out.push_back(cand);
      if (out.size() >= want) break;
    }
  }
  if (out.size() > want) out.resize(want);
  return out;
}

// An RPLE walk node is one segment.
constexpr auto SegmentItself = [](SegmentId s) {
  return std::array<SegmentId, 1>{s};
};

}  // namespace

StatusOr<TransitionTables> BuildTransitionTables(const RoadNetwork& net,
                                                 const SpatialIndex& index,
                                                 std::uint32_t T,
                                                 unsigned preassign_threads) {
  const std::size_t count = net.segment_count();
  if (T < 2) return Status::InvalidArgument("RPLE requires T >= 2");
  if (count <= 2 * static_cast<std::size_t>(T) + 1) {
    return Status::InvalidArgument(
        "RPLE pre-assignment requires segment count > 2T + 1");
  }

  // ---- Step 1: T-regular link digraph ----------------------------------
  // Greedy rounds over preference ranks, capped in/out degrees, then a
  // deficit-fill pass. Total capacity equals total demand (count * T each
  // side), so completion always succeeds on any graph with count > 2T+1.
  std::vector<std::vector<SegmentId>> targets(count);
  std::vector<std::uint32_t> out_deg(count, 0), in_deg(count, 0);
  const std::size_t preference_width = 4 * static_cast<std::size_t>(T);
  std::vector<std::vector<SegmentId>> preferences(count);

  // Preference pass: each slot is an independent pure function of
  // (net, index, s), so threads race only on the chunk counter — the
  // slot-indexed writes make the merge deterministic and the tables
  // byte-identical for any thread count.
  unsigned threads =
      preassign_threads != 0 ? preassign_threads
                             : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, 64);
  const std::size_t kChunk = 256;
  if (threads > 1 && count > kChunk) {
    std::atomic<std::size_t> next_chunk{0};
    auto preference_worker = [&] {
      for (;;) {
        const std::size_t begin = next_chunk.fetch_add(kChunk);
        if (begin >= count) return;
        const std::size_t end = std::min(begin + kChunk, count);
        for (std::size_t s = begin; s < end; ++s) {
          preferences[s] = LinkCandidates(
              net, index, SegmentId{static_cast<std::uint32_t>(s)},
              preference_width);
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(preference_worker);
    }
    for (auto& thread : pool) thread.join();
  } else {
    for (std::size_t s = 0; s < count; ++s) {
      preferences[s] = LinkCandidates(
          net, index, SegmentId{static_cast<std::uint32_t>(s)},
          preference_width);
    }
  }
  for (std::size_t s = 0; s < count; ++s) targets[s].reserve(T);

  // Arc membership as a hash set of packed (tail, head) pairs: the deficit
  // fill and exchange repair below probe has_arc inside O(count)-wide scans,
  // where the old per-tail linear find turned them quadratic.
  std::unordered_set<std::uint64_t> arc_set;
  arc_set.reserve(count * T);
  auto arc_key = [](std::size_t s, SegmentId t) {
    return (static_cast<std::uint64_t>(s) << 32) | Index(t);
  };
  auto has_arc = [&](std::size_t s, SegmentId t) {
    return arc_set.contains(arc_key(s, t));
  };
  auto add_arc = [&](std::size_t s, SegmentId t) {
    targets[s].push_back(t);
    arc_set.insert(arc_key(s, t));
    ++out_deg[s];
    ++in_deg[Index(t)];
  };

  for (std::size_t rank = 0; rank < preference_width; ++rank) {
    for (std::size_t s = 0; s < count; ++s) {
      if (out_deg[s] >= T) continue;
      if (rank >= preferences[s].size()) continue;
      const SegmentId t = preferences[s][rank];
      if (in_deg[Index(t)] >= T || has_arc(s, t)) continue;
      add_arc(s, t);
    }
  }

  // Deficit fill: spare head capacity is matched to deficient tails.
  // Spare heads are searched nearest-first so completion links stay local —
  // a long-range link would let the cloaking walk "teleport" and blow the
  // spatial tolerance. The resumable NearestCursor yields candidates in
  // exactly the (distance, id) order the old doubled-k re-queries walked,
  // without re-scanning from scratch per doubling. Global scan is the last
  // resort that guarantees completion (capacity equals demand).
  for (std::size_t s = 0; s < count; ++s) {
    if (out_deg[s] >= T) continue;
    const geo::Point mid =
        net.SegmentMidpoint(SegmentId{static_cast<std::uint32_t>(s)});
    SpatialIndex::NearestCursor cursor(index, mid);
    while (out_deg[s] < T) {
      const SegmentId t = cursor.Next();
      if (t != kInvalidSegment) {
        if (Index(t) == s || in_deg[Index(t)] >= T || has_arc(s, t)) {
          continue;
        }
        add_arc(s, t);
        continue;
      }
      {
        // Cursor exhausted the whole map: global scan by id.
        for (std::size_t h = 0; h < count && out_deg[s] < T; ++h) {
          const SegmentId t2{static_cast<std::uint32_t>(h)};
          if (h == s || in_deg[h] >= T || has_arc(s, t2)) continue;
          add_arc(s, t2);
        }
        // Exchange repair: every remaining spare head is s itself or
        // already a target of s. Rewire some arc (u -> v) with v fresh for
        // s onto a spare head t*, freeing v's in-slot for s:
        //   u -> v  becomes  u -> t*,   plus new  s -> v.
        // All degree constraints are preserved by construction.
        while (out_deg[s] < T) {
          std::size_t spare_head = count;
          for (std::size_t h = 0; h < count; ++h) {
            if (in_deg[h] < T) {
              spare_head = h;
              break;
            }
          }
          bool repaired = false;
          for (std::size_t u = 0; u < count && !repaired; ++u) {
            if (u == spare_head) continue;
            if (has_arc(u, SegmentId{static_cast<std::uint32_t>(
                               spare_head)})) {
              continue;
            }
            for (auto& v : targets[u]) {
              if (Index(v) == s || Index(v) == spare_head) continue;
              if (has_arc(s, v)) continue;
              const SegmentId freed = v;
              v = SegmentId{static_cast<std::uint32_t>(spare_head)};
              arc_set.erase(arc_key(u, freed));
              arc_set.insert(arc_key(u, v));
              ++in_deg[spare_head];
              --in_deg[Index(freed)];
              add_arc(s, freed);
              repaired = true;
              break;
            }
          }
          if (!repaired) {
            return Status::Internal(
                "RPLE pre-assignment: could not regularize link digraph");
          }
        }
        break;
      }
    }
  }

  // ---- Step 2: arc coloring (Kempe chains on the bipartite tail/head
  // incidence) ------------------------------------------------------------
  std::vector<SegmentId> ft_slots(count * T, kInvalidSegment);
  std::vector<SegmentId> bt_slots(count * T, kInvalidSegment);
  auto ft = [&](std::size_t s, std::uint32_t c) -> SegmentId& {
    return ft_slots[s * T + c];
  };
  auto bt = [&](std::size_t t, std::uint32_t c) -> SegmentId& {
    return bt_slots[t * T + c];
  };
  auto free_ft_color = [&](std::size_t s) -> std::uint32_t {
    for (std::uint32_t c = 0; c < T; ++c) {
      if (ft(s, c) == kInvalidSegment) return c;
    }
    return T;
  };
  auto free_bt_color = [&](std::size_t t) -> std::uint32_t {
    for (std::uint32_t c = 0; c < T; ++c) {
      if (bt(t, c) == kInvalidSegment) return c;
    }
    return T;
  };

  for (std::size_t s = 0; s < count; ++s) {
    for (const SegmentId t : targets[s]) {
      // The coloring only permutes slots, so the arcs are the tables' links.
      if (Index(t) == s) {
        return Status::Internal("RPLE pre-assignment: self-link at segment " +
                                std::to_string(s));
      }
      // Common free color?
      std::uint32_t common = T;
      for (std::uint32_t c = 0; c < T; ++c) {
        if (ft(s, c) == kInvalidSegment &&
            bt(Index(t), c) == kInvalidSegment) {
          common = c;
          break;
        }
      }
      if (common < T) {
        ft(s, common) = t;
        bt(Index(t), common) = SegmentId{static_cast<std::uint32_t>(s)};
        continue;
      }
      // Kempe chain: a free at tail s, b free at head t; swap colors a/b
      // along the maximal alternating path starting at t with color a.
      const std::uint32_t a = free_ft_color(s);
      const std::uint32_t b = free_bt_color(Index(t));
      if (a >= T || b >= T) {
        return Status::Internal("RPLE coloring: no free color (degree bug)");
      }
      struct PathEdge {
        std::uint32_t tail;
        std::uint32_t head;
        std::uint32_t color;
      };
      std::vector<PathEdge> path;
      bool head_side = true;
      std::uint32_t node = Index(t);
      std::uint32_t color = a;
      while (true) {
        if (head_side) {
          const SegmentId tail = bt(node, color);
          if (tail == kInvalidSegment) break;
          path.push_back({Index(tail), node, color});
          node = Index(tail);
        } else {
          const SegmentId head = ft(node, color);
          if (head == kInvalidSegment) break;
          path.push_back({node, Index(head), color});
          node = Index(head);
        }
        head_side = !head_side;
        color = (color == a) ? b : a;
      }
      for (const auto& edge : path) {  // clear, then re-place swapped
        ft(edge.tail, edge.color) = kInvalidSegment;
        bt(edge.head, edge.color) = kInvalidSegment;
      }
      for (const auto& edge : path) {
        const std::uint32_t swapped = (edge.color == a) ? b : a;
        ft(edge.tail, swapped) = SegmentId{edge.head};
        bt(edge.head, swapped) = SegmentId{edge.tail};
      }
      ft(s, a) = t;
      bt(Index(t), a) = SegmentId{static_cast<std::uint32_t>(s)};
    }
  }

  TransitionTables tables(T, std::move(ft_slots), std::move(bt_slots));
  RCLOAK_RETURN_IF_ERROR(tables.ValidatePairing());
  return tables;
}

GreedyPreassignResult PreassignGreedy(const RoadNetwork& net,
                                      const SpatialIndex& index,
                                      std::uint32_t T,
                                      std::size_t neighbor_list_cap) {
  const std::size_t count = net.segment_count();
  GreedyPreassignResult result;
  result.T = T;
  result.ft.assign(count * T, kInvalidSegment);
  result.bt.assign(count * T, kInvalidSegment);
  result.total_slots = count * T;
  if (neighbor_list_cap == 0) {
    neighbor_list_cap = 8 * static_cast<std::size_t>(T);
  }

  // Algorithm 1: for each segment, walk its neighbour list; for each
  // potential target sp take the first position empty in both FT[s] and
  // BT[sp]; skip the pair when the intersection is empty (this is exactly
  // the hole-forming case).
  for (std::size_t s = 0; s < count; ++s) {
    const auto nl = LinkCandidates(
        net, index, SegmentId{static_cast<std::uint32_t>(s)},
        neighbor_list_cap);
    for (const SegmentId sp : nl) {
      std::uint32_t sel = T;
      for (std::uint32_t j = 0; j < T; ++j) {
        if (result.ft[s * T + j] == kInvalidSegment &&
            result.bt[Index(sp) * T + j] == kInvalidSegment) {
          sel = j;
          break;
        }
      }
      if (sel == T) continue;
      result.ft[s * T + sel] = sp;
      result.bt[Index(sp) * T + sel] = SegmentId{static_cast<std::uint32_t>(s)};
      result.filled_slots += 1;
    }
  }
  return result;
}

StatusOr<LevelRecord> RpleAnonymizeLevel(
    const TransitionTables& tables, const UserCounter& users,
    CloakRegion& region, SegmentId& walk_position,
    const crypto::AccessKey& key, const std::string& context,
    int level_index, const LevelRequirement& requirement,
    RpleStats* stats) {
  const LevelStreams streams(key, context, level_index);
  RCLOAK_ASSIGN_OR_RETURN(
      LevelRecord record,
      WalkForward(tables, SegmentItself, users, region, walk_position,
                  region.segments_by_id(), walk_position, streams,
                  requirement, "RPLE", stats));
  record.seal = SealRank(region, walk_position, streams.prng);
  return record;
}

Status RpleDeanonymizeLevel(const TransitionTables& tables,
                            CloakRegion& region, const crypto::AccessKey& key,
                            const std::string& context, int level_index,
                            const LevelRecord& record) {
  if (region.size() != record.region_size) {
    return Status::FailedPrecondition(
        "RPLE de-anonymize: region size does not match level record");
  }
  const LevelStreams streams(key, context, level_index);
  RCLOAK_ASSIGN_OR_RETURN(const SegmentId end,
                          OpenSeal(region, record.seal, streams.prng));
  return WalkReverse(tables, SegmentItself, region, end, record, streams,
                     "RPLE")
      .status();
}

}  // namespace rcloak::core
