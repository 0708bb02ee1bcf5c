// JSON shaping of the typed experiment results — the series objects the
// BENCH_*.json records carry (schema: scripts/check_bench_json.py).
//
// Lives in analysis/ (not bench/) so the record-regression tests can pin
// the exact bytes a bench emits: the quick-scale fig06/fig11 series are
// golden-filed and recomputed bit-for-bit by the test suite, which is the
// safety net every hot-path refactor is validated against.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel_sweep.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "search/query.hpp"

namespace vs07::analysis {

/// One EffectivenessPoint as an ordered JSON object.
inline Json toJson(const EffectivenessPoint& p) {
  return Json::object()
      .set("fanout", p.fanout)
      .set("runs", p.runs)
      .set("avg_miss_percent", p.avgMissPercent)
      .set("complete_percent", p.completePercent)
      .set("avg_messages_total", p.avgMessagesTotal)
      .set("avg_virgin", p.avgVirgin)
      .set("avg_redundant", p.avgRedundant)
      .set("avg_to_dead", p.avgToDead)
      .set("avg_last_hop", p.avgLastHop)
      .set("total_misses", p.totalMisses);
}

/// A labelled effectiveness sweep as a series object.
inline Json effectivenessSeries(std::string label,
                                const std::vector<EffectivenessPoint>& points) {
  Json array = Json::array();
  for (const auto& point : points) array.push(toJson(point));
  return Json::object()
      .set("label", std::move(label))
      .set("kind", "effectiveness")
      .set("points", std::move(array));
}

/// A labelled per-hop progress series.
inline Json progressSeries(std::string label, const ProgressStats& stats) {
  Json mean = Json::array();
  Json lo = Json::array();
  Json hi = Json::array();
  for (std::size_t hop = 0; hop < stats.meanPctRemaining.size(); ++hop) {
    mean.push(stats.meanPctRemaining[hop]);
    lo.push(stats.minPctRemaining[hop]);
    hi.push(stats.maxPctRemaining[hop]);
  }
  return Json::object()
      .set("label", std::move(label))
      .set("kind", "progress")
      .set("fanout", stats.fanout)
      .set("runs", stats.runs)
      .set("mean_pct_remaining", std::move(mean))
      .set("min_pct_remaining", std::move(lo))
      .set("max_pct_remaining", std::move(hi));
}

/// A labelled exact-count histogram (value/count pairs, ascending).
inline Json histogramSeries(std::string label, const CountHistogram& h) {
  Json values = Json::array();
  Json counts = Json::array();
  for (const auto& [value, count] : h.sorted()) {
    values.push(value);
    counts.push(count);
  }
  return Json::object()
      .set("label", std::move(label))
      .set("kind", "histogram")
      .set("total", h.total())
      .set("values", std::move(values))
      .set("counts", std::move(counts));
}

/// Any rendered Table as a generic series (columns + string rows), for
/// benches whose metrics do not fit the typed shapes above.
inline Json tableSeries(std::string label, const Table& table) {
  Json columns = Json::array();
  for (const auto& cell : table.header()) columns.push(cell);
  Json rows = Json::array();
  for (const auto& row : table.rowData()) {
    Json cells = Json::array();
    for (const auto& cell : row) cells.push(cell);
    rows.push(std::move(cells));
  }
  return Json::object()
      .set("label", std::move(label))
      .set("kind", "table")
      .set("columns", std::move(columns))
      .set("rows", std::move(rows));
}

/// A replication-factor sweep of one search strategy as a series object:
/// parallel arrays indexed by TTL, one series per (strategy, replication)
/// pair. Shared by bench/search_workload and the hit-rate golden test so
/// the regression pins the exact bytes the bench emits.
inline Json searchSweepSeries(std::string label,
                              const search::SearchReport& sample,
                              const std::vector<search::SearchReport>& sweep) {
  Json ttl = Json::array();
  Json hitRate = Json::array();
  Json cacheHit = Json::array();
  Json avgHops = Json::array();
  Json messages = Json::array();
  for (const auto& report : sweep) {
    ttl.push(report.ttl);
    hitRate.push(report.hitRatePercent());
    cacheHit.push(100.0 * report.cacheHitFraction());
    avgHops.push(report.avgHopsToResolve());
    messages.push(report.messagesPerQuery());
  }
  return Json::object()
      .set("label", std::move(label))
      .set("kind", "search_sweep")
      .set("strategy", search::searchStrategyName(sample.strategy))
      .set("replication", sample.replication)
      .set("queries", sample.queries)
      .set("ttl", std::move(ttl))
      .set("hit_rate_percent", std::move(hitRate))
      .set("cache_hit_percent", std::move(cacheHit))
      .set("avg_hops_to_hit", std::move(avgHops))
      .set("messages_per_query", std::move(messages));
}

}  // namespace vs07::analysis
