// The traced run's layer replay: the public calls a request makes inside
// the server, made in the server's order from the benchmark's own code,
// each wrapped in a span.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "serve/artifact_cache.h"
#include "served.h"
#include "spans.h"

namespace perfbench {

struct ReplayConfig {
  const Base* base = nullptr;
  const Oracle* oracle = nullptr;
  const std::vector<Input>* inputs = nullptr;
  /// Served operations to replay, in order.
  std::vector<PlannedOp> ops;
  /// Mirrors ServerOptions::max_forecast_width > 0: cached requests go
  /// through ArtifactCache::Lookup, misses are parsed and forecast.
  bool forecast = false;
  /// Inputs that also run the artifact pipeline (parse, forecast, compile,
  /// prepare, store write/load/restore) and the SDD chain.
  std::vector<size_t> pipeline_inputs;
  /// SddManager::Wmc calls per pipeline input.
  size_t sdd_queries = 2;
  /// The served artifacts were restored from the store (not compiled in
  /// memory); selects which artifact nnf.live_ratio describes.
  bool restored = false;
  std::string scratch_dir;
};

/// The layer metrics that come from replayed spans and counter deltas.
/// `cache` must already hold the artifacts the ops query.
void ReplayLayers(const ReplayConfig& cfg, tbc::serve::ArtifactCache& cache,
                  Checker& checker, SpanRecorder& rec, Outcome& outcome,
                  Metrics* layer);

/// Root span names and the layer spans whose sum is a replayed request.
inline const char* kQueryRoot = "request";
const std::vector<std::string>& QueryLayerSpans();
const std::vector<std::string>& KernelSpans();

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
