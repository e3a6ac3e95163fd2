#include "replay.h"

#include <sys/stat.h>

#include <cstdlib>
#include <optional>

#include "analysis/structure/forecast.h"
#include "base/observability.h"
#include "compiler/ddnnf_compiler.h"
#include "nnf/properties.h"
#include "nnf/queries.h"
#include "sdd/compile.h"
#include "serve/protocol.h"
#include "store/store.h"

namespace perfbench {

using tbc::Cnf;
using tbc::Guard;
using tbc::Lit;
using tbc::NnfId;
using tbc::NnfManager;
using tbc::Var;
using tbc::WeightMap;
using tbc::serve::Request;
using tbc::serve::Response;

namespace {

uint64_t Counter(const char* name) {
  return tbc::Observability::Global().CounterValue(name);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// The server's admission forecast (serve/server.cc): min-fill off, no
// backbone, a fixed 2^24 work budget.
tbc::StructureOptions AdmissionOptions() {
  tbc::StructureOptions o;
  o.compute_backbone = false;
  o.try_minfill = false;
  o.work_budget = uint64_t{1} << 24;
  return o;
}

tbc::Budget RequestBudget() {
  tbc::Budget b;
  b.timeout_ms = 10'000.0;  // ServerOptions::default_timeout_ms
  return b;
}

std::string_view Payload(const std::string& frame) {
  return std::string_view(frame).substr(tbc::serve::kFrameHeaderBytes);
}

/// A circuit compiled and warmed the way ArtifactCache::Build does it.
struct Built {
  std::unique_ptr<NnfManager> mgr = std::make_unique<NnfManager>();
  NnfId root = tbc::kInvalidNnf;
  tbc::BigUint count;
};

/// Per-run accumulators the spans do not carry.
struct Tallies {
  Samples request_bytes, response_bytes, store_bytes, decisions;
  Samples compile_cache_ratio, apply_calls, apply_hit_ratio, nodes_per_size;
  Samples live_ratio;
};

/// parse → compile → prepare, spanned; the compile-path half of a miss.
std::optional<Built> CompileAndPrepare(const Cnf& cnf, SpanRecorder& rec,
                                       uint64_t rid, Tallies& t,
                                       Outcome& outcome) {
  Built b;
  Guard guard(RequestBudget());
  const uint64_t dec0 = Counter("ddnnf.decisions");
  const uint64_t hit0 = Counter("ddnnf.cache_hits");
  const uint64_t miss0 = Counter("ddnnf.cache_misses");
  {
    ScopedSpan s(&rec, "compiler.compile", rid);
    tbc::DdnnfCompiler compiler;
    auto root = compiler.CompileBounded(cnf, *b.mgr, guard);
    if (!root.ok()) {
      outcome.Fail("replay compile: " + root.status().message());
      return std::nullopt;
    }
    b.root = *root;
  }
  t.decisions.Add(static_cast<double>(Counter("ddnnf.decisions") - dec0));
  const uint64_t hits = Counter("ddnnf.cache_hits") - hit0;
  t.compile_cache_ratio.Add(
      Ratio(hits, hits + Counter("ddnnf.cache_misses") - miss0));
  {
    // ArtifactCache::Build's warm-up: varsets, level schedule, count memo,
    // smoothed root for the marginals query.
    ScopedSpan s(&rec, "nnf.prepare", rid);
    NnfManager& mgr = *b.mgr;
    mgr.VarSet(b.root);
    mgr.ScheduleCached(b.root);
    auto count = tbc::ModelCountBounded(mgr, b.root, cnf.num_vars(), guard);
    if (!count.ok()) {
      outcome.Fail("replay count: " + count.status().message());
      return std::nullopt;
    }
    b.count = std::move(count).value();
    const NnfId smooth = tbc::Smooth(mgr, b.root, cnf.num_vars());
    mgr.VarSet(smooth);
  }
  return b;
}

off_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
}

void ReplayOp(const ReplayConfig& cfg, const PlannedOp& op, uint64_t rid,
              tbc::serve::ArtifactCache& cache, Checker& checker,
              SpanRecorder& rec, Tallies& t, Outcome& outcome) {
  const Input& in = (*cfg.inputs)[op.input];
  const Request req = MakeRequest(op, in);
  outcome.Attempt();
  ScopedSpan root(&rec, op.kind == Kind::kCompile ? "request.compile" : kQueryRoot,
                  rid);
  std::string frame;
  {
    ScopedSpan s(&rec, "protocol.request_encode", rid);
    frame = tbc::serve::EncodeFrame(req.Serialize());
  }
  t.request_bytes.Add(static_cast<double>(frame.size()));
  const tbc::Result<Request> parsed = [&] {
    ScopedSpan s(&rec, "protocol.request_decode", rid);
    return Request::Parse(Payload(frame));
  }();
  if (!parsed.ok()) {
    outcome.Fail("replay request parse: " + parsed.status().message());
    return;
  }
  Guard guard(RequestBudget());
  Response resp;
  std::shared_ptr<const tbc::serve::Artifact> art;
  if (cfg.forecast) {
    ScopedSpan s(&rec, "cache.lookup", rid);
    art = cache.Lookup(parsed->cnf_text);
    if (art == nullptr) s.Rename("cache.lookup_miss");
  } else {
    ScopedSpan s(&rec, "cache.lookup", rid);
    bool hit = false;
    auto got = cache.GetOrCompile(parsed->cnf_text, guard, &hit);
    if (got.ok() && hit) art = *got;
    if (!hit) s.Rename("cache.lookup_miss");
  }
  if (art == nullptr) {
    // The miss path of a forecast-admitted compile: parse, forecast,
    // compile, warm, spill. The artifact is not inserted: the replay
    // measures layers, the served loop measures the cache.
    std::optional<Cnf> cnf;
    {
      ScopedSpan s(&rec, "logic.parse", rid);
      auto p = Cnf::ParseDimacs(parsed->cnf_text);
      if (p.ok()) cnf = std::move(p).value();
    }
    if (!cnf) {
      outcome.Fail("replay parse failed");
      return;
    }
    {
      ScopedSpan s(&rec, "structure.forecast", rid);
      tbc::AnalyzeCnfStructure(*cnf, AdmissionOptions());
    }
    std::optional<Built> b = CompileAndPrepare(*cnf, rec, rid, t, outcome);
    if (!b) return;
    const std::string path = cfg.scratch_dir + "/op" + std::to_string(rid) + ".tbc";
    tbc::StoreWriteOptions so;
    so.cnf_text = parsed->cnf_text;
    so.model_count = &b->count;
    so.num_vars = cnf->num_vars();
    {
      ScopedSpan s(&rec, "store.write", rid);
      const tbc::Status st = tbc::WriteCircuitStore(*b->mgr, b->root, path, so);
      if (!st.ok()) outcome.Fail("replay store write: " + st.message());
    }
    t.store_bytes.Add(static_cast<double>(FileBytes(path)));
    std::remove(path.c_str());
    resp.count = b->count.ToString();
    resp.circuit_nodes = b->mgr->NumNodesBelow(b->root);
    resp.circuit_edges = b->mgr->CircuitSize(b->root);
  } else {
    resp.artifact = art->key;
    resp.cache_hit = true;
    resp.circuit_nodes = art->nodes;
    resp.circuit_edges = art->edges;
    WeightMap weights(art->num_vars);
    for (const auto& [dimacs, w] : parsed->weights) {
      weights.Set(Lit::FromDimacs(dimacs), w);
    }
    switch (op.kind) {
      case Kind::kCompile:
        resp.count = art->count.ToString();
        break;
      case Kind::kWmc: {
        ScopedSpan s(&rec, "nnf.wmc", rid);
        auto wmc = tbc::WmcBounded(*art->mgr, art->root, weights, guard);
        resp.has_wmc = wmc.ok();
        resp.wmc = wmc.ok() ? *wmc : 0.0;
        break;
      }
      case Kind::kMpe: {
        const tbc::Result<tbc::MpeResult> mpe = [&] {
          ScopedSpan s(&rec, "nnf.mpe", rid);
          return tbc::MaxWmcBounded(*art->mgr, art->root, weights,
                                    art->num_vars, guard);
        }();
        if (mpe.ok()) {
          resp.has_mpe = true;
          resp.mpe_weight = mpe->weight;
          for (size_t v = 0; v < art->num_vars; ++v) {
            resp.mpe.push_back(Lit(static_cast<Var>(v), mpe->assignment[v]).ToDimacs());
          }
        }
        break;
      }
      case Kind::kMar: {
        std::vector<double> m;
        {
          ScopedSpan s(&rec, "nnf.mar", rid);
          m = tbc::MarginalWmc(*art->mgr, art->root, weights);
        }
        for (size_t code = 0; code < m.size(); ++code) {
          resp.marginals.emplace_back(
              Lit::FromCode(static_cast<uint32_t>(code)).ToDimacs(), m[code]);
        }
        break;
      }
    }
  }
  std::string rframe;
  {
    ScopedSpan s(&rec, "protocol.response_encode", rid);
    rframe = tbc::serve::EncodeFrame(resp.Serialize());
  }
  t.response_bytes.Add(static_cast<double>(rframe.size()));
  const tbc::Result<Response> back = [&] {
    ScopedSpan s(&rec, "protocol.response_decode", rid);
    return Response::Parse(Payload(rframe));
  }();
  if (!back.ok()) {
    outcome.Fail("replay response parse: " + back.status().message());
    return;
  }
  const std::string why = checker.Check(op, *back);
  if (!why.empty()) outcome.Fail("replay: " + why);
}

/// Compile path plus the SDD chain of kc_cli --target=sdd --vtree=minfill.
void ReplayPipeline(const ReplayConfig& cfg, size_t input, uint64_t rid,
                    SpanRecorder& rec, Tallies& t, Outcome& outcome) {
  const Input& in = (*cfg.inputs)[input];
  const Oracle& oracle = *cfg.oracle;
  outcome.Attempt();
  ScopedSpan root(&rec, "pipeline", rid);
  std::optional<Cnf> cnf;
  {
    ScopedSpan s(&rec, "logic.parse", rid);
    auto p = Cnf::ParseDimacs(in.text);
    if (p.ok()) cnf = std::move(p).value();
  }
  if (!cnf) {
    outcome.Fail("pipeline parse failed");
    return;
  }
  {
    ScopedSpan s(&rec, "structure.forecast", rid);
    tbc::AnalyzeCnfStructure(*cnf, AdmissionOptions());
  }
  std::optional<Built> b = CompileAndPrepare(*cnf, rec, rid, t, outcome);
  if (!b) return;
  if (b->count.ToString() != oracle.count) outcome.Fail("pipeline d-DNNF count");
  if (!cfg.restored) {
    t.live_ratio.Add(Ratio(b->mgr->NumNodesBelow(b->root), b->mgr->num_nodes()));
  }
  const std::string path = cfg.scratch_dir + "/pipe" + std::to_string(rid) + ".tbc";
  tbc::StoreWriteOptions so;
  so.cnf_text = in.text;
  so.model_count = &b->count;
  so.num_vars = cnf->num_vars();
  {
    ScopedSpan s(&rec, "store.write", rid);
    const tbc::Status st = tbc::WriteCircuitStore(*b->mgr, b->root, path, so);
    if (!st.ok()) outcome.Fail("pipeline store write: " + st.message());
  }
  t.store_bytes.Add(static_cast<double>(FileBytes(path)));
  {
    ScopedSpan s(&rec, "store.load", rid);
    auto loaded = tbc::LoadCircuitStore(path);
    if (!loaded.ok() || !loaded->store->has_model_count() ||
        loaded->store->model_count().ToString() != oracle.count) {
      outcome.Fail("pipeline store load");
    }
  }
  std::remove(path.c_str());

  tbc::Vtree vtree;
  {
    ScopedSpan s(&rec, "structure.vtree", rid);
    const tbc::StructureReport report = tbc::AnalyzeCnfStructure(*cnf);
    vtree = report.candidates.empty()
                ? tbc::Vtree::Balanced(tbc::Vtree::IdentityOrder(cnf->num_vars()))
                : tbc::VtreeForCnf(report);
  }
  tbc::SddManager sdd(vtree);
  tbc::SddId f = 0;
  const uint64_t calls0 = Counter("sdd.apply.calls");
  const uint64_t hits0 = Counter("sdd.apply.cache_hits");
  const uint64_t nodes0 = Counter("sdd.nodes.created");
  {
    ScopedSpan s(&rec, "sdd.compile", rid);
    f = tbc::CompileCnf(sdd, *cnf);
  }
  const uint64_t calls = Counter("sdd.apply.calls") - calls0;
  t.apply_calls.Add(static_cast<double>(calls));
  t.apply_hit_ratio.Add(Ratio(Counter("sdd.apply.cache_hits") - hits0, calls));
  t.nodes_per_size.Add(Ratio(Counter("sdd.nodes.created") - nodes0, sdd.Size(f)));
  if (sdd.ModelCount(f).ToString() != oracle.count) outcome.Fail("pipeline SDD count");
  for (size_t q = 0; q < cfg.sdd_queries; ++q) {
    const size_t e = (input + q) % in.weights.size();
    double wmc = 0.0;
    {
      ScopedSpan s(&rec, "sdd.wmc", rid);
      wmc = sdd.Wmc(f, in.weights[e]);
    }
    NnfManager exported;
    NnfId er = tbc::kInvalidNnf;
    {
      ScopedSpan s(&rec, "sdd.export", rid);
      er = sdd.ToNnf(f, exported);
    }
    Guard guard(RequestBudget());
    const tbc::Result<double> ev = [&] {
      ScopedSpan s(&rec, "sdd.eval", rid);
      return tbc::WmcBounded(exported, er, in.weights[e], guard);
    }();
    if (!Close(wmc, oracle.wmc[e]) || !ev.ok() || !Close(*ev, oracle.wmc[e])) {
      outcome.Fail("pipeline SDD wmc differs from oracle");
    }
  }
}

void Put(Metrics* m, const std::string& name, double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

}  // namespace

const std::vector<std::string>& QueryLayerSpans() {
  static const std::vector<std::string> names = {
      "protocol.request_encode", "protocol.request_decode", "cache.lookup",
      "nnf.wmc", "nnf.mpe", "nnf.mar", "protocol.response_encode",
      "protocol.response_decode"};
  return names;
}

const std::vector<std::string>& KernelSpans() {
  static const std::vector<std::string> names = {"nnf.wmc", "nnf.mpe", "nnf.mar"};
  return names;
}

void ReplayLayers(const ReplayConfig& cfg, tbc::serve::ArtifactCache& cache,
                  Checker& checker, SpanRecorder& rec, Outcome& outcome,
                  Metrics* layer) {
  Tallies t;
  uint64_t rid = 1;
  for (const PlannedOp& op : cfg.ops) {
    ReplayOp(cfg, op, rid++, cache, checker, rec, t, outcome);
  }
  for (size_t input : cfg.pipeline_inputs) {
    ReplayPipeline(cfg, input, rid++, rec, t, outcome);
  }

  // Restore: spill the pipeline inputs the way the cache names them, then
  // time one WarmStart over the directory.
  const std::string dir = cfg.scratch_dir + "/restore";
  ::mkdir(dir.c_str(), 0755);
  {
    tbc::serve::ArtifactCache spiller(cfg.pipeline_inputs.size(), dir);
    Guard guard(RequestBudget());
    for (size_t input : cfg.pipeline_inputs) {
      if (!spiller.GetOrCompile((*cfg.inputs)[input].text, guard, nullptr).ok()) {
        outcome.Fail("restore spill");
      }
    }
  }
  tbc::serve::ArtifactCache restored(cfg.pipeline_inputs.size(), dir);
  size_t n = 0;
  {
    ScopedSpan s(&rec, "store.warm_start", rid++);
    n = restored.WarmStart();
  }
  if (n != cfg.pipeline_inputs.size()) outcome.Fail("restore count");
  if (cfg.restored) {
    for (size_t input : cfg.pipeline_inputs) {
      auto art = restored.Lookup((*cfg.inputs)[input].text);
      if (art != nullptr) {
        t.live_ratio.Add(Ratio(art->mgr->NumNodesBelow(art->root),
                               art->mgr->num_nodes()));
      }
    }
  }

  const auto us = [&](const char* span) { return rec.SelfUs(span).Median(); };
  Put(layer, "protocol.request_encode_us", us("protocol.request_encode"), "us");
  Put(layer, "protocol.request_decode_us", us("protocol.request_decode"), "us");
  Put(layer, "protocol.request_bytes", t.request_bytes.Median(), "bytes");
  Put(layer, "protocol.response_encode_us", us("protocol.response_encode"), "us");
  Put(layer, "protocol.response_decode_us", us("protocol.response_decode"), "us");
  Put(layer, "protocol.response_bytes", t.response_bytes.Median(), "bytes");
  Put(layer, "cache.lookup_us", us("cache.lookup"), "us");
  Put(layer, "logic.parse_ms", us("logic.parse") / 1e3, "ms");
  Put(layer, "structure.forecast_ms", us("structure.forecast") / 1e3, "ms");
  Put(layer, "structure.vtree_ms", us("structure.vtree") / 1e3, "ms");
  Put(layer, "compiler.compile_ms", us("compiler.compile") / 1e3, "ms");
  Put(layer, "compiler.decisions", t.decisions.Median(), "count");
  Put(layer, "compiler.cache_hit_ratio", t.compile_cache_ratio.Median(), "ratio");
  Put(layer, "nnf.prepare_ms", us("nnf.prepare") / 1e3, "ms");
  Put(layer, "nnf.wmc_us", us("nnf.wmc"), "us");
  Put(layer, "nnf.mpe_us", us("nnf.mpe"), "us");
  Put(layer, "nnf.mar_us", us("nnf.mar"), "us");
  Put(layer, "nnf.live_ratio", t.live_ratio.Median(), "ratio");
  Put(layer, "store.write_ms", us("store.write") / 1e3, "ms");
  Put(layer, "store.bytes_written", t.store_bytes.Median(), "bytes");
  Put(layer, "store.load_ms", us("store.load") / 1e3, "ms");
  Put(layer, "store.restore_ms",
      n == 0 ? 0.0 : us("store.warm_start") / 1e3 / static_cast<double>(n), "ms");
  Put(layer, "sdd.compile_ms", us("sdd.compile") / 1e3, "ms");
  Put(layer, "sdd.apply_calls", t.apply_calls.Median(), "count");
  Put(layer, "sdd.apply_cache_hit_ratio", t.apply_hit_ratio.Median(), "ratio");
  Put(layer, "sdd.nodes_created_per_size", t.nodes_per_size.Median(), "ratio");
  Put(layer, "sdd.wmc_us", us("sdd.wmc"), "us");
  Put(layer, "sdd.export_us", us("sdd.export"), "us");
  Put(layer, "sdd.eval_us", us("sdd.eval"), "us");
}

}  // namespace perfbench
