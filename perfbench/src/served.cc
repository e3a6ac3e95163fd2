#include "served.h"

#include <atomic>
#include <thread>

#include "serve/client.h"

namespace perfbench {

using tbc::Lit;
using tbc::Var;
using tbc::serve::Client;
using tbc::serve::ClientOptions;
using tbc::serve::Op;
using tbc::serve::Request;
using tbc::serve::Response;

Input MakeInput(const Base& base, uint64_t rename_seed, const std::string& tag) {
  Input in;
  in.renamed = Rename(base.cnf, rename_seed);
  in.text = Tagged(in.renamed, tag);
  for (const tbc::WeightMap& w : base.pool) {
    in.weights.push_back(RenameWeights(w, in.renamed.perm));
    in.wire.push_back(WireWeights(in.weights.back()));
  }
  return in;
}

Request MakeRequest(const PlannedOp& op, const Input& in) {
  Request req;
  switch (op.kind) {
    case Kind::kWmc: req.op = Op::kWmc; break;
    case Kind::kMpe: req.op = Op::kMpe; break;
    case Kind::kMar: req.op = Op::kMar; break;
    case Kind::kCompile: req.op = Op::kCompile; break;
  }
  if (op.kind == Kind::kCompile) {
    req.cnf_text = op.fresh_tag.empty() ? in.text : Tagged(in.renamed, op.fresh_tag);
  } else {
    req.cnf_text = in.text;
    req.weights = in.wire[op.pool];
  }
  return req;
}

std::string Checker::Check(const PlannedOp& op, const Response& r) {
  if (!r.ok()) return "refused: " + r.message;
  const Input& in = inputs_[op.input];
  const size_t n = in.renamed.cnf.num_vars();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = edges_.emplace(op.input, r.circuit_edges);
    if (r.circuit_edges == 0 || (!fresh && it->second != r.circuit_edges)) {
      return "circuit size changed for one input";
    }
  }
  const double wmc = op.kind == Kind::kCompile ? 0.0 : oracle_.wmc[op.pool];
  switch (op.kind) {
    case Kind::kCompile:
      return r.count == oracle_.count ? "" : "model count " + r.count;
    case Kind::kWmc:
      if (!r.has_wmc || !Close(r.wmc, wmc)) return "wmc differs from oracle";
      return "";
    case Kind::kMpe: {
      if (!r.has_mpe || r.mpe.size() != n) return "mpe missing";
      tbc::Assignment a(n);
      double weight = 1.0;
      for (size_t v = 0; v < n; ++v) {
        const int d = r.mpe[v];
        if (d != static_cast<int>(v + 1) && d != -static_cast<int>(v + 1)) {
          return "mpe assignment out of order";
        }
        a[v] = d > 0;
        weight *= in.weights[op.pool][Lit(static_cast<Var>(v), d > 0)];
      }
      if (!in.renamed.cnf.Evaluate(a)) return "mpe assignment violates the CNF";
      if (!Close(weight, r.mpe_weight)) return "mpe weight not reproduced";
      if (!(r.mpe_weight > 0.0) || r.mpe_weight > wmc * (1 + 1e-9)) {
        return "mpe weight outside (0, wmc]";
      }
      return "";
    }
    case Kind::kMar: {
      if (r.marginals.size() != 2 * n) return "marginals missing";
      for (size_t v = 0; v < n; ++v) {
        const auto& pos = r.marginals[2 * v];
        const auto& neg = r.marginals[2 * v + 1];
        if (pos.first != static_cast<int>(v + 1) ||
            neg.first != -static_cast<int>(v + 1)) {
          return "marginals out of order";
        }
        if (!Close(pos.second + neg.second, wmc)) {
          return "m(x)+m(-x) differs from wmc";
        }
      }
      const std::vector<Lit>& probes = base_.probes[op.pool];
      for (size_t p = 0; p < probes.size(); ++p) {
        const Lit l = RenameLit(probes[p], in.renamed.perm);
        if (!Close(r.marginals[l.code()].second, oracle_.mar[op.pool][p])) {
          return "marginal differs from oracle";
        }
      }
      return "";
    }
  }
  return "unknown op";
}

double Checker::MeanEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (edges_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [input, e] : edges_) sum += static_cast<double>(e);
  return sum / static_cast<double>(edges_.size());
}

namespace {

ClientOptions NoRetryClient(const tbc::serve::Address& addr) {
  ClientOptions opts;
  opts.address = addr;
  opts.retry.max_attempts = 1;  // a retry would hide a failure
  opts.deadline_ms = 60'000.0;
  return opts;
}

}  // namespace

LoopResult RunClosedLoop(const tbc::serve::Address& addr, size_t clients,
                         double seconds, int phase, const Plan& plan,
                         const std::vector<Input>& inputs, Checker& checker,
                         Outcome& outcome, SpanRecorder* spans) {
  std::vector<LoopResult> per(clients);
  std::atomic<size_t> running{clients};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& res = per[c];
      Client client(NoRetryClient(addr));
      uint64_t round = 0;
      do {
        for (size_t slot = 0; slot < plan.ops_per_round; ++slot) {
          const PlannedOp op = plan.op(phase, c, round, slot);
          const Request req = MakeRequest(op, inputs[op.input]);
          const uint64_t request_id = (uint64_t{1} << 48) * (c + 1) +
                                      round * plan.ops_per_round + slot;
          outcome.Attempt();
          const Clock::time_point s = Clock::now();
          tbc::Result<Response> resp = [&] {
            ScopedSpan span(spans, "client.call", request_id);
            return client.Call(req);
          }();
          const double ms = MsSince(s);
          const double done = MsSince(t0) / 1e3;
          res.done_s.push_back(done);
          ++res.ops;
          res.retries += static_cast<uint64_t>(client.last_attempts() - 1);
          if (op.kind == Kind::kCompile) {
            res.compile_ms.Add(ms);
            res.compile_done_s.push_back(done);
            ++res.compiles;
          } else {
            res.query_ms.Add(ms);
            res.query_done_s.push_back(done);
          }
          if (!resp.ok()) {
            outcome.Fail("transport: " + resp.status().message());
            continue;
          }
          if (resp->cache_hit) ++res.hit_responses;
          const std::string why = checker.Check(op, *resp);
          if (!why.empty()) outcome.Fail(why);
        }
        ++round;
      } while (Clock::now() < deadline);
      res.rounds.push_back(round);
      running.fetch_sub(1);
    });
  }
  // One CPU per connection in each window: a connection's client and
  // server threads wake each other, and the two connections run side by side.
  const CpuRotation rotation(clients);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowS));
  for (size_t w = 0; running.load() > 0; ++w) {
    rotation.Enter(w);
    std::this_thread::sleep_until(t0 + window * static_cast<int64_t>(w + 1));
  }
  rotation.Release();
  for (std::thread& t : threads) t.join();
  LoopResult total;
  for (const LoopResult& r : per) {
    total.query_ms.Append(r.query_ms);
    total.compile_ms.Append(r.compile_ms);
    total.query_done_s.insert(total.query_done_s.end(), r.query_done_s.begin(),
                              r.query_done_s.end());
    total.compile_done_s.insert(total.compile_done_s.end(),
                                r.compile_done_s.begin(), r.compile_done_s.end());
    total.done_s.insert(total.done_s.end(), r.done_s.begin(), r.done_s.end());
    total.ops += r.ops;
    total.compiles += r.compiles;
    total.retries += r.retries;
    total.hit_responses += r.hit_responses;
    total.rounds.push_back(r.rounds.empty() ? 0 : r.rounds[0]);
  }
  return total;
}

Samples CompileAll(const tbc::serve::Address& addr,
                   const std::vector<Input>& inputs, size_t first, size_t count,
                   Checker& checker, Outcome& outcome) {
  Client client(NoRetryClient(addr));
  Samples ms;
  for (size_t i = first; i < first + count; ++i) {
    PlannedOp op;
    op.kind = Kind::kCompile;
    op.input = i;
    outcome.Attempt();
    const Clock::time_point s = Clock::now();
    auto resp = client.Call(MakeRequest(op, inputs[i]));
    ms.Add(MsSince(s));
    if (!resp.ok()) {
      outcome.Fail("transport: " + resp.status().message());
      continue;
    }
    const std::string why = checker.Check(op, *resp);
    if (!why.empty()) outcome.Fail(why);
  }
  return ms;
}

}  // namespace perfbench
