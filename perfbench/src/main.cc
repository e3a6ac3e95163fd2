// tbc_perfbench: one workload of the end-to-end benchmark, in one process.
//
//   tbc_perfbench oracle --workload W --seed N --oracle FILE
//   tbc_perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --oracle FILE --workdir DIR [--spans FILE] [--short]
//
// `oracle` computes the expected answers with ModelCounter in a process of
// its own, so its memory never shows in the workload's peak RSS. `run`
// prints the result as one JSON line on stdout (every end-to-end metric,
// or with --trace 1 every per-layer metric) and a JSON line of
// determinism details on stderr. perfbench/run.py drives both.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/structure/forecast.h"
#include "base/observability.h"
#include "common.h"
#include "inputs.h"
#include "replay.h"
#include "sdd/compile.h"
#include "served.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {
namespace {

using tbc::serve::ArtifactCache;
using tbc::serve::Server;
using tbc::serve::ServerOptions;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string workdir = ".";
  std::string oracle_path;
  std::string spans_path;
};

/// What one run reports besides the metrics: the determinism guards'
/// inputs, as raw JSON values keyed by name.
using Details = std::vector<std::pair<std::string, std::string>>;

struct Ctx {
  Args args;
  Base base;
  Oracle oracle;
  tbc::serve::Address addr;
  Outcome outcome;
  Metrics metrics;
  Details details;
  SpanRecorder spans;
};

uint64_t Counter(const char* name) {
  return tbc::Observability::Global().CounterValue(name);
}

void Put(Metrics* m, const std::string& name, double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MakeDir(const std::string& dir) { ::mkdir(dir.c_str(), 0755); }

const Kind kQueryCycle[5] = {Kind::kWmc, Kind::kMpe, Kind::kWmc, Kind::kMpe,
                             Kind::kMar};

/// Queries only: each client walks the inputs from its own offset and asks
/// WMC, MPE, WMC, MPE, MAR of each (40/40/20), so p50 sits in the WMC/MPE
/// mode and p90 in the MAR mode. Pool entries are seeded per slot.
Plan QueryPlan(uint64_t seed, size_t inputs, size_t clients, size_t pool) {
  Plan plan;
  plan.ops_per_round = 5 * inputs;
  plan.op = [=](int phase, size_t c, uint64_t round, size_t slot) {
    PlannedOp op;
    op.input = (slot / 5 + c * inputs / clients) % inputs;
    op.kind = kQueryCycle[slot % 5];
    op.pool = Mix(Mix(seed, static_cast<uint64_t>(phase) * 16 + c),
                  round * 5 * inputs + slot) %
              pool;
    return op;
  };
  return plan;
}

std::string JsonList(const std::vector<uint64_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + std::to_string(v[i]);
  }
  return out + "]";
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t InputDigest(const std::vector<Input>& inputs) {
  uint64_t h = 0;
  for (const Input& in : inputs) {
    h = Digest(h, in.text);
    for (const auto& wire : in.wire) {
      std::string bytes;
      for (const auto& [lit, w] : wire) {
        bytes += std::to_string(lit) + ":" + std::to_string(w) + " ";
      }
      h = Digest(h, bytes);
    }
  }
  return h;
}

/// Each end-to-end figure is read from the slow side of its per-window
/// figures: the 0.9 quantile of the window latencies, the 0.1 quantile of
/// the window rates. A vCPU of the shared host runs either at a steady
/// slow speed or faster by up to 1.6x, and which windows a run caught fast
/// moved its median window by up to a third from run to run. The slow
/// side is the steady speed, which a run that visits every CPU reaches.
constexpr double kSlowSide = 0.9;

/// The slow-side figure over windows of the q-quantile of the latencies
/// that completed in each window. `done_s[i]` is when `ms.values()[i]`
/// completed.
double WindowedQuantile(const std::vector<double>& done_s, const Samples& ms,
                        size_t windows, double q) {
  std::vector<Samples> per(windows);
  for (size_t i = 0; i < done_s.size(); ++i) {
    const size_t w = static_cast<size_t>(done_s[i] / kWindowS);
    if (w < per.size()) per[w].Add(ms.values()[i]);
  }
  Samples figures;
  for (const Samples& w : per) {
    if (!w.empty()) figures.Add(w.Quantile(q));
  }
  return figures.Quantile(kSlowSide);
}

struct E2e {
  double throughput_rps = 0.0;
  double query_p50_ms = 0.0, query_p90_ms = 0.0;
  double compile_p50_ms = 0.0, compile_p90_ms = 0.0;
};

/// Slow-side window figures of a timed loop; compile figures too when
/// compiles ran in the loop.
E2e LoopFigures(const LoopResult& r, double seconds) {
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
  E2e f;
  f.throughput_rps = WindowRates(r.done_s, kWindowS).Quantile(1.0 - kSlowSide);
  f.query_p50_ms = WindowedQuantile(r.query_done_s, r.query_ms, windows, 0.5);
  f.query_p90_ms = WindowedQuantile(r.query_done_s, r.query_ms, windows, 0.9);
  f.compile_p50_ms = WindowedQuantile(r.compile_done_s, r.compile_ms, windows, 0.5);
  f.compile_p90_ms = WindowedQuantile(r.compile_done_s, r.compile_ms, windows, 0.9);
  return f;
}

void PutE2e(Ctx& ctx, const E2e& f, const Samples& setup_s, double circuit_size,
            size_t query_samples, size_t compile_samples) {
  Metrics* m = &ctx.metrics;
  Put(m, "throughput_rps", f.throughput_rps, "1/s");
  Put(m, "query_p50_ms", f.query_p50_ms, "ms");
  Put(m, "query_p90_ms", f.query_p90_ms, "ms");
  Put(m, "compile_p50_ms", f.compile_p50_ms, "ms");
  Put(m, "compile_p90_ms", f.compile_p90_ms, "ms");
  Put(m, "setup_s", setup_s.Median(), "s");
  Put(m, "peak_rss_mb", PeakRssMb(), "MB");
  Put(m, "circuit_size", circuit_size, "count");
  ctx.details.emplace_back("query_samples", std::to_string(query_samples));
  ctx.details.emplace_back("compile_samples", std::to_string(compile_samples));
}

/// Counter snapshot taken after setup; the guards compare deltas.
struct ServeCounters {
  uint64_t misses = Counter("serve.cache.misses");
  uint64_t hits = Counter("serve.cache.hits");
  uint64_t evictions = Counter("serve.cache.evictions");
  uint64_t accepted = Counter("serve.requests.accepted");
};

/// The traced run of a served loop: phase A untraced, phase B with a span
/// around every client call, then the layer replay. Also the loop-level
/// layer metrics (cache share, evictions, retries, serving residual).
void TraceServed(Ctx& ctx, size_t clients, const Plan& plan,
                 const std::vector<Input>& inputs, Checker& checker,
                 ArtifactCache& replay_cache, ReplayConfig rc,
                 LoopResult* both, ServeCounters* after_loops) {
  const double phase_s = ctx.args.short_mode ? 0.3 : std::max(1.0, ctx.args.seconds / 4);
  const LoopResult a = RunClosedLoop(ctx.addr, clients, phase_s, 0, plan, inputs,
                                     checker, ctx.outcome, nullptr);
  const LoopResult b = RunClosedLoop(ctx.addr, clients, phase_s, 1, plan, inputs,
                                     checker, ctx.outcome, &ctx.spans);
  both->ops = a.ops + b.ops;
  both->compiles = a.compiles + b.compiles;
  both->retries = a.retries + b.retries;
  both->hit_responses = a.hit_responses + b.hit_responses;
  // The replay's own caches move the serve.cache counters; the guards
  // compare the served loops only.
  *after_loops = ServeCounters();

  MakeDir(rc.scratch_dir);
  Metrics* layer = &ctx.metrics;
  ReplayLayers(rc, replay_cache, checker, ctx.spans, ctx.outcome, layer);

  const double client_us = a.query_ms.Median() * 1e3;
  const double layer_sum_us = ctx.spans.ChildSumUs(kQueryRoot, QueryLayerSpans()).Median();
  Samples kernel;
  for (const std::string& name : KernelSpans()) kernel.Append(ctx.spans.SelfUs(name));
  Put(layer, "server.client_p50_us", client_us, "us");
  Put(layer, "server.layer_sum_us", layer_sum_us, "us");
  Put(layer, "server.residual_us", client_us - layer_sum_us, "us");
  Put(layer, "server.overhead_us", client_us - kernel.Median(), "us");
  Put(layer, "cache.hit_ratio",
      both->ops == 0 ? 0.0
                     : static_cast<double>(both->hit_responses) /
                           static_cast<double>(both->ops),
      "ratio");
  Put(layer, "client.retries", static_cast<double>(both->retries), "count");
  Put(layer, "trace.overhead_us",
      (b.query_ms.Median() - a.query_ms.Median()) * 1e3, "us");
}

/// Seeded choice of whole rounds of client 0 to replay.
std::vector<PlannedOp> SampleRounds(const Plan& plan, uint64_t seed, size_t rounds) {
  std::vector<PlannedOp> ops;
  for (size_t r = 0; r < rounds; ++r) {
    const uint64_t round = Mix(seed, 77 + r) % 1000;
    for (size_t s = 0; s < plan.ops_per_round; ++s) {
      ops.push_back(plan.op(2, 0, round, s));
    }
  }
  return ops;
}

std::unique_ptr<Server> StartServer(Ctx& ctx, const ServerOptions& o) {
  auto s = Server::Start(o);
  if (!s.ok()) {
    ctx.outcome.Violate("server start: " + s.status().message());
    return nullptr;
  }
  return std::move(s).value();
}

// ---------------------------------------------------------------------------
// warm_restart: a daemon restarted on a filled store answers queries only.

void WarmRestart(Ctx& ctx) {
  const bool short_mode = ctx.args.short_mode;
  const size_t k = short_mode ? 4 : 16;
  const size_t fills = short_mode ? 1 : 8;
  const size_t starts = short_mode ? 2 : 15;
  const uint64_t seed = ctx.args.seed;
  std::vector<Input> inputs;
  for (size_t i = 0; i < k; ++i) {
    inputs.push_back(MakeInput(ctx.base, Mix(seed, 1000 + i),
                               "warm_restart seed=" + std::to_string(seed) +
                                   " item=" + std::to_string(i)));
  }
  Checker checker(ctx.base, ctx.oracle, inputs);
  ServerOptions o;
  o.address = ctx.addr;
  o.cache_capacity = 2 * k;

  // A first life of the daemon compiles every input into a fresh store.
  // Its compiles are the workload's compile latencies. Half the fills run
  // before the restart (the last one is the store restarted on), half
  // after the timed loop, once the restarted daemon is gone: so the
  // compile figures sample the shared host across the whole run, as the
  // query figures do.
  std::vector<Samples> fill_ms;  // per fill, per input
  const auto fill = [&]() {
    o.store_dir = "fill" + std::to_string(fill_ms.size());
    MakeDir(o.store_dir);
    std::unique_ptr<Server> first = StartServer(ctx, o);
    if (!first) return false;
    fill_ms.push_back(CompileAll(ctx.addr, inputs, 0, k, checker, ctx.outcome));
    return true;
  };
  for (size_t f = 0; f < (fills + 1) / 2; ++f) {
    if (!fill()) return;
  }

  // Restart on the last store, several times, each on the next CPU;
  // setup_s is the median.
  Samples setup_s;
  std::unique_ptr<Server> server;
  const CpuRotation setup_cpus(1);
  for (size_t r = 0; r < starts; ++r) {
    server.reset();
    setup_cpus.Enter(r);
    const uint64_t restores0 = Counter("serve.store.restores");
    const Clock::time_point t0 = Clock::now();
    server = StartServer(ctx, o);
    setup_s.Add(MsSince(t0) / 1e3);
    if (!server) return;
    if (Counter("serve.store.restores") - restores0 != k) {
      ctx.outcome.Violate("restart restored the wrong number of artifacts");
    }
  }
  setup_cpus.Release();

  const Plan plan = QueryPlan(seed, k, 2, ctx.base.pool.size());
  const ServeCounters before;
  ServeCounters after;
  LoopResult r;
  if (ctx.args.trace) {
    ArtifactCache restored(2 * k, o.store_dir);
    restored.WarmStart();
    ReplayConfig rc;
    rc.base = &ctx.base;
    rc.oracle = &ctx.oracle;
    rc.inputs = &inputs;
    rc.ops = SampleRounds(plan, seed, 1);
    rc.pipeline_inputs = {0};
    rc.restored = true;
    rc.scratch_dir = "replay";
    TraceServed(ctx, 2, plan, inputs, checker, restored, rc, &r, &after);
  } else {
    r = RunClosedLoop(ctx.addr, 2, ctx.args.seconds, 0, plan, inputs, checker,
                      ctx.outcome, nullptr);
    after = ServeCounters();
  }
  server.reset();
  if (!ctx.args.trace) {
    while (fill_ms.size() < fills) {
      if (!fill()) return;
    }
  }

  // Determinism guards: no compile after the restart, every query a hit,
  // the server saw exactly the planned operations.
  if (after.misses != before.misses) ctx.outcome.Violate("warm_restart compiled");
  if (after.hits - before.hits != r.ops) ctx.outcome.Violate("cache hits != queries");
  if (after.accepted - before.accepted != r.ops) {
    ctx.outcome.Violate("server saw other operations than planned");
  }
  ctx.details.emplace_back("rounds", JsonList(r.rounds));
  ctx.details.emplace_back("ops_per_round", std::to_string(plan.ops_per_round));
  ctx.details.emplace_back("misses_after_setup", std::to_string(after.misses - before.misses));
  ctx.details.emplace_back("evictions", std::to_string(after.evictions - before.evictions));
  ctx.details.emplace_back("input_digest", Hex(InputDigest(inputs)));
  ctx.details.emplace_back("circuit_size", std::to_string(checker.MeanEdges()));
  if (ctx.args.trace) {
    Put(&ctx.metrics, "cache.evictions",
        static_cast<double>(after.evictions - before.evictions), "count");
  } else {
    // Each fill compiled each input once. A p90 over single compiles of
    // ~50 ms jumps with the host's load, so each input gets one figure
    // over the fills, read at the slow side as the loop figures are, and
    // the quantiles are taken over those per-input figures.
    E2e f = LoopFigures(r, ctx.args.seconds);
    Samples per_input;
    for (size_t i = 0; i < k; ++i) {
      Samples repeats;
      for (const Samples& fill : fill_ms) {
        if (i < fill.size()) repeats.Add(fill.values()[i]);
      }
      per_input.Add(repeats.Quantile(kSlowSide));
    }
    f.compile_p50_ms = per_input.Quantile(0.5);
    f.compile_p90_ms = per_input.Quantile(0.9);
    PutE2e(ctx, f, setup_s, checker.MeanEdges(), r.query_ms.size(), fills * k);
  }
}

// ---------------------------------------------------------------------------
// compile_mix: about one request in eleven compiles a never-seen renaming
// while the rest query a small hot set held in memory.

constexpr size_t kHot = 4;
constexpr size_t kFreshPool = 8;
constexpr size_t kMixCapacity = 12;  // hot set + 8 slots of churn

void CompileMix(Ctx& ctx) {
  const bool short_mode = ctx.args.short_mode;
  const size_t reps = short_mode ? 1 : 9;
  const uint64_t seed = ctx.args.seed;
  std::vector<Input> inputs;
  for (size_t i = 0; i < kHot + kFreshPool; ++i) {
    inputs.push_back(MakeInput(ctx.base, Mix(seed, 2000 + i),
                               "compile_mix seed=" + std::to_string(seed) +
                                   " item=" + std::to_string(i)));
  }
  Checker checker(ctx.base, ctx.oracle, inputs);
  ServerOptions o;
  o.address = ctx.addr;
  o.cache_capacity = kMixCapacity;
  o.max_forecast_width = 64;  // above the family's width: nothing refused

  // Set-up is repeated, each time on the next CPU; setup_s is the median.
  Samples setup_s;
  std::unique_ptr<Server> server;
  const CpuRotation setup_cpus(1);
  for (size_t r = 0; r < reps; ++r) {
    server.reset();
    setup_cpus.Enter(r);
    o.store_dir = "store" + std::to_string(r);
    MakeDir(o.store_dir);
    const Clock::time_point t0 = Clock::now();
    server = StartServer(ctx, o);
    if (!server) return;
    CompileAll(ctx.addr, inputs, 0, kHot, checker, ctx.outcome);
    setup_s.Add(MsSince(t0) / 1e3);
  }
  setup_cpus.Release();

  const size_t pool = ctx.base.pool.size();
  Plan plan;
  plan.ops_per_round = 22;
  plan.op = [seed, pool](int phase, size_t c, uint64_t round, size_t slot) {
    PlannedOp op;
    if (slot == 10 || slot == 21) {
      const uint64_t n = round * 2 + (slot == 21 ? 1 : 0);
      op.kind = Kind::kCompile;
      op.input = kHot + (kFreshPool / 2 * c + n) % kFreshPool;
      op.fresh_tag = "compile_mix seed=" + std::to_string(seed) +
                     " phase=" + std::to_string(phase) + " client=" +
                     std::to_string(c) + " n=" + std::to_string(n);
      return op;
    }
    const size_t q = slot < 10 ? slot : slot - 1;  // 0..19
    op.input = q % kHot;
    op.kind = kQueryCycle[q / kHot];
    op.pool = Mix(Mix(seed, static_cast<uint64_t>(phase) * 16 + c),
                  round * 22 + slot) %
              pool;
    return op;
  };

  ServeCounters before;
  ServeCounters after;
  LoopResult r;
  if (ctx.args.trace) {
    ArtifactCache hot(kMixCapacity);
    tbc::Guard guard;
    for (size_t i = 0; i < kHot; ++i) {
      if (!hot.GetOrCompile(inputs[i].text, guard, nullptr).ok()) {
        ctx.outcome.Violate("replay cache priming");
      }
    }
    before = ServeCounters();
    ReplayConfig rc;
    rc.base = &ctx.base;
    rc.oracle = &ctx.oracle;
    rc.inputs = &inputs;
    rc.ops = SampleRounds(plan, seed, 2);
    rc.forecast = true;
    rc.pipeline_inputs = {kHot};
    rc.scratch_dir = "replay";
    TraceServed(ctx, 2, plan, inputs, checker, hot, rc, &r, &after);
  } else {
    r = RunClosedLoop(ctx.addr, 2, ctx.args.seconds, 0, plan, inputs, checker,
                      ctx.outcome, nullptr);
    after = ServeCounters();
  }
  server.reset();

  // Determinism guards: each fresh compile is exactly one miss (no hot
  // artifact was ever evicted and recompiled), and evictions follow from
  // the compile count alone.
  const uint64_t misses = after.misses - before.misses;
  const uint64_t evictions = after.evictions - before.evictions;
  const uint64_t expected_evictions =
      kHot + r.compiles > kMixCapacity ? kHot + r.compiles - kMixCapacity : 0;
  if (misses != r.compiles) ctx.outcome.Violate("misses != fresh compiles");
  if (evictions != expected_evictions) ctx.outcome.Violate("unexpected evictions");
  if (after.accepted - before.accepted != r.ops) {
    ctx.outcome.Violate("server saw other operations than planned");
  }
  ctx.details.emplace_back("rounds", JsonList(r.rounds));
  ctx.details.emplace_back("ops_per_round", std::to_string(plan.ops_per_round));
  ctx.details.emplace_back("fresh_compiles", std::to_string(r.compiles));
  ctx.details.emplace_back("misses_after_setup", std::to_string(misses));
  ctx.details.emplace_back("evictions", std::to_string(evictions));
  ctx.details.emplace_back("input_digest", Hex(InputDigest(inputs)));
  ctx.details.emplace_back("circuit_size", std::to_string(checker.MeanEdges()));
  if (ctx.args.trace) {
    Put(&ctx.metrics, "cache.evictions", static_cast<double>(evictions), "count");
  } else {
    PutE2e(ctx, LoopFigures(r, ctx.args.seconds), setup_s, checker.MeanEdges(),
           r.query_ms.size(), r.compile_ms.size());
  }
}

// ---------------------------------------------------------------------------
// cli_sdd: the library calls of `kc_cli --target=sdd --vtree=minfill`, then
// SddManager::Wmc queries, one thread, no server.

constexpr size_t kSddQueries = 8;

void CliSdd(Ctx& ctx) {
  const bool short_mode = ctx.args.short_mode;
  const size_t p = short_mode ? 4 : 16;
  const size_t reps = short_mode ? 2 : 25;
  const uint64_t seed = ctx.args.seed;
  std::vector<Input> inputs;
  for (size_t i = 0; i < p; ++i) {
    inputs.push_back(MakeInput(ctx.base, Mix(seed, 3000 + i),
                               "cli_sdd seed=" + std::to_string(seed) +
                                   " item=" + std::to_string(i)));
  }
  MakeDir("inputs");
  for (size_t i = 0; i < p; ++i) {
    std::ofstream("inputs/" + std::to_string(i) + ".cnf") << inputs[i].text;
  }

  // Set-up is what the CLI does before its first library call: read the
  // input files. One read of all of them takes ~0.1 ms, so its median is
  // taken over many repeats, each on the next CPU.
  Samples setup_s;
  std::vector<std::string> texts(p);
  const CpuRotation setup_cpus(1);
  for (size_t r = 0; r < reps; ++r) {
    setup_cpus.Enter(r);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < p; ++i) {
      std::ifstream in("inputs/" + std::to_string(i) + ".cnf");
      std::stringstream ss;
      ss << in.rdbuf();
      texts[i] = ss.str();
    }
    setup_s.Add(MsSince(t0) / 1e3);
  }
  setup_cpus.Release();
  for (size_t i = 0; i < p; ++i) {
    if (texts[i] != inputs[i].text) ctx.outcome.Violate("input file round trip");
  }

  const size_t pool = ctx.base.pool.size();
  if (ctx.args.trace) {
    // The served-path layers have no place in this workload; they are
    // measured on its inputs by a one-client probe so every layer metric
    // is reported, and the SDD chain runs in the pipeline replay.
    Checker checker(ctx.base, ctx.oracle, inputs);
    ServerOptions o;
    o.address = ctx.addr;
    o.cache_capacity = 2 * p;
    std::unique_ptr<Server> server = StartServer(ctx, o);
    if (!server) return;
    CompileAll(ctx.addr, inputs, 0, p, checker, ctx.outcome);
    ArtifactCache cache(2 * p);
    tbc::Guard guard;
    for (const Input& in : inputs) {
      if (!cache.GetOrCompile(in.text, guard, nullptr).ok()) {
        ctx.outcome.Violate("replay cache priming");
      }
    }
    const Plan plan = QueryPlan(seed, p, 1, pool);
    ReplayConfig rc;
    rc.base = &ctx.base;
    rc.oracle = &ctx.oracle;
    rc.inputs = &inputs;
    rc.ops = SampleRounds(plan, seed, 1);
    rc.pipeline_inputs = short_mode ? std::vector<size_t>{0}
                                    : std::vector<size_t>{0, 1, 2, 3};
    rc.sdd_queries = kSddQueries / 2;
    rc.scratch_dir = "replay";
    const ServeCounters before;
    ServeCounters after;
    LoopResult r;
    TraceServed(ctx, 1, plan, inputs, checker, cache, rc, &r, &after);
    if (after.misses != before.misses) ctx.outcome.Violate("probe compiled");
    Put(&ctx.metrics, "cache.evictions",
        static_cast<double>(after.evictions - before.evictions), "count");
    return;
  }

  LoopResult r;
  std::vector<uint64_t> sizes(p, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ctx.args.seconds));
  uint64_t round = 0;
  const CpuRotation rotation(1);
  size_t window = 0;
  rotation.Enter(window);
  do {
    if (MsSince(start) / 1e3 >= kWindowS * static_cast<double>(window + 1)) {
      window = static_cast<size_t>(MsSince(start) / 1e3 / kWindowS);
      rotation.Enter(window);
    }
    const size_t i = round % p;
    ctx.outcome.Attempt();
    const Clock::time_point t0 = Clock::now();
    auto parsed = tbc::Cnf::ParseDimacs(texts[i]);
    if (!parsed.ok()) {
      ctx.outcome.Fail("parse: " + parsed.status().message());
      ++round;
      continue;
    }
    const tbc::Cnf& cnf = *parsed;
    const tbc::StructureReport report = tbc::AnalyzeCnfStructure(cnf);
    const tbc::Vtree vtree =
        report.candidates.empty()
            ? tbc::Vtree::Balanced(tbc::Vtree::IdentityOrder(cnf.num_vars()))
            : tbc::VtreeForCnf(report);
    tbc::SddManager mgr(vtree);
    const tbc::SddId f = tbc::CompileCnf(mgr, cnf);
    const std::string count = mgr.ModelCount(f).ToString();
    r.compile_ms.Add(MsSince(t0));
    r.compile_done_s.push_back(MsSince(start) / 1e3);
    r.done_s.push_back(r.compile_done_s.back());
    const uint64_t size = mgr.Size(f);
    if (count != ctx.oracle.count) ctx.outcome.Fail("sdd model count " + count);
    if (sizes[i] != 0 && sizes[i] != size) ctx.outcome.Fail("sdd size changed");
    sizes[i] = size;
    for (size_t q = 0; q < kSddQueries; ++q) {
      const size_t e = Mix(Mix(seed, 9), round * kSddQueries + q) % pool;
      ctx.outcome.Attempt();
      const Clock::time_point tq = Clock::now();
      const double wmc = mgr.Wmc(f, inputs[i].weights[e]);
      r.query_ms.Add(MsSince(tq));
      r.query_done_s.push_back(MsSince(start) / 1e3);
      r.done_s.push_back(r.query_done_s.back());
      if (!Close(wmc, ctx.oracle.wmc[e])) ctx.outcome.Fail("sdd wmc differs from oracle");
    }
    ++round;
  } while (Clock::now() < deadline);
  rotation.Release();

  double size_sum = 0.0;
  size_t seen = 0;
  for (uint64_t s : sizes) {
    if (s != 0) {
      size_sum += static_cast<double>(s);
      ++seen;
    }
  }
  const double mean_size = seen == 0 ? 0.0 : size_sum / static_cast<double>(seen);
  ctx.details.emplace_back("rounds", JsonList({round}));
  ctx.details.emplace_back("ops_per_round", std::to_string(1 + kSddQueries));
  ctx.details.emplace_back("input_digest", Hex(InputDigest(inputs)));
  ctx.details.emplace_back("circuit_size", std::to_string(mean_size));
  PutE2e(ctx, LoopFigures(r, ctx.args.seconds), setup_s, mean_size,
         r.query_ms.size(), r.compile_ms.size());
}

// ---------------------------------------------------------------------------

struct Spec {
  const char* name;
  Family family;
  size_t pool;
  void (*run)(Ctx&);
};

const Spec kSpecs[] = {
    {"warm_restart", Family::kBayes, 6, WarmRestart},
    {"compile_mix", Family::kBayes, 6, CompileMix},
    {"cli_sdd", Family::kRandom3Cnf, 16, CliSdd},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      a->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::stoull(v);
    else if (flag == "--seconds") a->seconds = std::stod(v);
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--workdir") a->workdir = v;
    else if (flag == "--oracle") a->oracle_path = v;
    else if (flag == "--spans") a->spans_path = v;
    else return false;
  }
  return (a->mode == "run" || a->mode == "oracle") && !a->oracle_path.empty();
}

std::string ResultJson(const Ctx& ctx) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (ctx.outcome.correct() ? "true" : "false")
      << ", \"attempted\": " << ctx.outcome.attempted()
      << ", \"failed\": " << ctx.outcome.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : ctx.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string DetailsJson(const Ctx& ctx) {
  std::string out = "{\"workload\": \"" + ctx.args.workload +
                    "\", \"seed\": " + std::to_string(ctx.args.seed) +
                    ", \"trace\": " + (ctx.args.trace ? "true" : "false");
  for (const auto& [k, v] : ctx.details) out += ", \"" + k + "\": " + v;
  out += ", \"reasons\": [";
  const auto& reasons = ctx.outcome.reasons();
  for (size_t i = 0; i < reasons.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(reasons[i]) + "\"";
  }
  return out + "]}";
}

int Main(int argc, char** argv) {
  auto ctx = std::make_unique<Ctx>();
  if (!ParseArgs(argc, argv, &ctx->args)) {
    std::fprintf(stderr, "usage: tbc_perfbench oracle|run --workload W --seed N "
                         "--oracle FILE [--seconds S] [--trace 0|1] "
                         "[--workdir DIR] [--spans FILE] [--short]\n");
    return 2;
  }
  const Spec* spec = FindSpec(ctx->args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "tbc_perfbench: unknown workload '%s'\n",
                 ctx->args.workload.c_str());
    return 2;
  }
  ctx->base = MakeBase(spec->family, ctx->args.seed, spec->pool);
  // The oracle's pool depends on the seed: its file names both.
  const std::string header = "perfbench-oracle " + ctx->args.workload + " " +
                             std::to_string(ctx->args.seed) + "\n";
  if (ctx->args.mode == "oracle") {
    std::ofstream out(ctx->args.oracle_path);
    out << header << FormatOracle(ComputeOracle(ctx->base));
    return out ? 0 : 1;
  }
  {
    std::ifstream in(ctx->args.oracle_path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    if (text.compare(0, header.size(), header) != 0 ||
        !ParseOracle(text.substr(header.size()), ctx->base, &ctx->oracle)) {
      std::fprintf(stderr, "tbc_perfbench: unreadable oracle file\n");
      return 1;
    }
  }
  MakeDir(ctx->args.workdir);
  if (::chdir(ctx->args.workdir.c_str()) != 0) {
    std::fprintf(stderr, "tbc_perfbench: cannot enter %s\n", ctx->args.workdir.c_str());
    return 1;
  }
  // A relative socket path keeps it under the 108-byte sun_path limit
  // however deep the checkout is.
  ctx->addr.uds_path = "serve.sock";

  spec->run(*ctx);

  if (ctx->args.trace && !ctx->args.spans_path.empty()) {
    ctx->spans.WriteJsonl(ctx->args.spans_path);
  }
  std::fprintf(stderr, "perfbench-details: %s\n", DetailsJson(*ctx).c_str());
  std::printf("%s\n", ResultJson(*ctx).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
