// Closed-loop clients against an in-process serve::Server, and the checks
// every response must pass.
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "serve/protocol.h"
#include "serve/wire.h"
#include "spans.h"

namespace perfbench {

/// One renamed input as a client sends it.
struct Input {
  std::string text;  // exact request bytes (tagged DIMACS)
  Renamed renamed;
  /// Per pool entry: renamed weights, and their request form.
  std::vector<tbc::WeightMap> weights;
  std::vector<std::vector<std::pair<int, double>>> wire;
};
Input MakeInput(const Base& base, uint64_t rename_seed, const std::string& tag);

enum class Kind { kWmc, kMpe, kMar, kCompile };

/// One planned operation. A compile with a non-empty `fresh_tag` sends the
/// input's renaming under that tag, a key the server has never seen.
struct PlannedOp {
  Kind kind = Kind::kWmc;
  size_t input = 0;
  size_t pool = 0;
  std::string fresh_tag;
};

tbc::serve::Request MakeRequest(const PlannedOp& op, const Input& in);

/// The op stream of a workload: a pure function of (phase, client, round,
/// slot), so every round of a client issues the same mix on the same
/// inputs, whatever the thread interleaving.
struct Plan {
  size_t ops_per_round = 0;
  std::function<PlannedOp(int phase, size_t client, uint64_t round,
                          size_t slot)>
      op;
};

/// Checks answers against the oracle and records each input's circuit
/// size, which must repeat exactly on every response for that input.
class Checker {
 public:
  Checker(const Base& base, const Oracle& oracle, const std::vector<Input>& inputs)
      : base_(base), oracle_(oracle), inputs_(inputs) {}

  /// Empty string when the response is right; otherwise the reason.
  std::string Check(const PlannedOp& op, const tbc::serve::Response& r);

  /// Mean circuit edges over the distinct inputs answered so far.
  double MeanEdges() const;

 private:
  const Base& base_;
  const Oracle& oracle_;
  const std::vector<Input>& inputs_;
  mutable std::mutex mu_;
  std::map<size_t, uint64_t> edges_;  // input -> circuit edges
};

struct LoopResult {
  Samples query_ms;
  Samples compile_ms;
  /// Completion times in seconds since the loop started: of each query
  /// (query_done_s[i] belongs to query_ms.values()[i]), of each compile,
  /// of every operation.
  std::vector<double> query_done_s;
  std::vector<double> compile_done_s;
  std::vector<double> done_s;
  uint64_t ops = 0;
  uint64_t compiles = 0;
  uint64_t retries = 0;
  uint64_t hit_responses = 0;  // responses that report a cache hit
  std::vector<uint64_t> rounds;  // per client
};

/// Runs `clients` blocking clients (one connection each, no retries) until
/// `seconds` have passed, each finishing its current round. Every window
/// the process moves to the next `clients` CPUs (CpuRotation). With a span
/// recorder, every call gets a "client.call" span with its own request id.
LoopResult RunClosedLoop(const tbc::serve::Address& addr, size_t clients,
                         double seconds, int phase, const Plan& plan,
                         const std::vector<Input>& inputs, Checker& checker,
                         Outcome& outcome, SpanRecorder* spans);

/// Compiles each input once through one client (setup priming / store
/// fill); returns per-call latencies in ms.
Samples CompileAll(const tbc::serve::Address& addr,
                   const std::vector<Input>& inputs, size_t first, size_t count,
                   Checker& checker, Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
