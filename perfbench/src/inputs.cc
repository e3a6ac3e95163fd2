#include "inputs.h"

#include <sstream>

#include "base/hash.h"
#include "base/random.h"
#include "base/strings.h"
#include "bayes/network.h"
#include "bayes/wmc_encoding.h"
#include "common.h"
#include "compiler/model_counter.h"

namespace perfbench {

using tbc::Cnf;
using tbc::Lit;
using tbc::Rng;
using tbc::Var;
using tbc::WeightMap;

namespace {

// The bases are fixed so that every seed draws from one cost class. Among
// the first seeds of each generator these gave the smallest spread of
// circuit size under renaming (d-DNNF edges for the network, min-fill SDD
// size for the 3-CNF), so a pool of renamings costs about the same on
// every benchmark seed.
constexpr uint64_t kBayesNetworkSeed = 143;
constexpr uint64_t kRandom3CnfSeed = 24;

Cnf Random3Cnf(uint64_t seed, int n, int m) {
  Rng rng(seed);
  Cnf cnf(static_cast<size_t>(n));
  for (int i = 0; i < m; ++i) {
    std::vector<int> clause;
    while (clause.size() < 3) {
      const int v = static_cast<int>(rng.Range(1, n));
      bool dup = false;
      for (int x : clause) dup = dup || (x == v || x == -v);
      if (!dup) clause.push_back(rng.Flip(0.5) ? v : -v);
    }
    cnf.AddClauseDimacs(clause);
  }
  return cnf;
}

}  // namespace

Base MakeBase(Family family, uint64_t seed, size_t pool_size) {
  Base base;
  base.family = family;
  Rng rng(Mix(seed, 0x5eed));
  if (family == Family::kBayes) {
    const tbc::BayesianNetwork net =
        tbc::BayesianNetwork::RandomBinary(40, 3, kBayesNetworkSeed);
    const tbc::WmcEncoding enc(net);
    base.cnf = enc.cnf();
    for (size_t e = 0; e < pool_size; ++e) {
      tbc::BnInstantiation evidence(net.num_vars(), tbc::kUnobserved);
      for (int k = 0; k < 3; ++k) {
        const size_t v = rng.Below(net.num_vars());
        evidence[v] = static_cast<int>(rng.Below(2));
      }
      base.pool.push_back(enc.WeightsWithEvidence(evidence));
    }
  } else {
    base.cnf = Random3Cnf(kRandom3CnfSeed, 30, 75);
    for (size_t e = 0; e < pool_size; ++e) {
      WeightMap w(base.cnf.num_vars());
      for (Var v = 0; v < base.cnf.num_vars(); ++v) {
        w.Set(tbc::Pos(v), 0.1 + rng.Uniform());
        w.Set(tbc::Neg(v), 0.1 + rng.Uniform());
      }
      base.pool.push_back(std::move(w));
    }
  }
  const size_t n = base.cnf.num_vars();
  for (size_t e = 0; e < pool_size; ++e) {
    base.probes.push_back({Lit(static_cast<Var>(rng.Below(n)), true),
                           Lit(static_cast<Var>(rng.Below(n)), false)});
  }
  return base;
}

Renamed Rename(const Cnf& base, uint64_t seed) {
  Rng rng(seed);
  const size_t n = base.num_vars();
  Renamed r;
  r.perm.resize(n);
  for (Var v = 0; v < n; ++v) r.perm[v] = v;
  for (size_t i = n; i > 1; --i) std::swap(r.perm[i - 1], r.perm[rng.Below(i)]);
  std::vector<tbc::Clause> clauses = base.clauses();
  for (size_t i = clauses.size(); i > 1; --i) {
    std::swap(clauses[i - 1], clauses[rng.Below(i)]);
  }
  r.cnf = Cnf(n);
  for (const tbc::Clause& c : clauses) {
    tbc::Clause renamed;
    renamed.reserve(c.size());
    for (Lit l : c) renamed.push_back(RenameLit(l, r.perm));
    r.cnf.AddClause(std::move(renamed));
  }
  r.body = r.cnf.ToDimacs();
  return r;
}

std::string Tagged(const Renamed& r, const std::string& tag) {
  return "c perfbench " + tag + "\n" + r.body;
}

Lit RenameLit(Lit l, const std::vector<Var>& perm) {
  return Lit(perm[l.var()], l.positive());
}

WeightMap RenameWeights(const WeightMap& w, const std::vector<Var>& perm) {
  WeightMap out(w.num_vars());
  for (Var v = 0; v < w.num_vars(); ++v) {
    out.Set(RenameLit(tbc::Pos(v), perm), w[tbc::Pos(v)]);
    out.Set(RenameLit(tbc::Neg(v), perm), w[tbc::Neg(v)]);
  }
  return out;
}

std::vector<std::pair<int, double>> WireWeights(const WeightMap& w) {
  std::vector<std::pair<int, double>> out;
  for (Var v = 0; v < w.num_vars(); ++v) {
    for (Lit l : {tbc::Pos(v), tbc::Neg(v)}) {
      if (w[l] != 1.0) out.emplace_back(l.ToDimacs(), w[l]);
    }
  }
  return out;
}

Oracle ComputeOracle(const Base& base) {
  Oracle o;
  tbc::ModelCounter counter;
  o.count = counter.Count(base.cnf).ToString();
  for (size_t e = 0; e < base.pool.size(); ++e) {
    o.wmc.push_back(counter.Wmc(base.cnf, base.pool[e]));
    std::vector<double> mar;
    for (Lit probe : base.probes[e]) {
      // WMC(Δ ∧ l): the weight of ¬l set to zero.
      WeightMap w = base.pool[e];
      w.Set(~probe, 0.0);
      mar.push_back(counter.Wmc(base.cnf, w));
    }
    o.mar.push_back(std::move(mar));
  }
  return o;
}

std::string FormatOracle(const Oracle& o) {
  std::string out = "count " + o.count + "\n";
  for (size_t e = 0; e < o.wmc.size(); ++e) {
    out += "wmc " + tbc::FormatDoubleHex(o.wmc[e]);
    for (double m : o.mar[e]) out += " " + tbc::FormatDoubleHex(m);
    out += "\n";
  }
  return out;
}

bool ParseOracle(const std::string& text, const Base& base, Oracle* out) {
  std::istringstream in(text);
  std::string key;
  if (!(in >> key) || key != "count" || !(in >> out->count)) return false;
  for (size_t e = 0; e < base.pool.size(); ++e) {
    std::string tok;
    double v = 0.0;
    if (!(in >> key >> tok) || key != "wmc" ||
        !tbc::ParseDoubleAnyFormat(tok, &v)) {
      return false;
    }
    out->wmc.push_back(v);
    std::vector<double> mar;
    for (size_t p = 0; p < base.probes[e].size(); ++p) {
      if (!(in >> tok) || !tbc::ParseDoubleAnyFormat(tok, &v)) return false;
      mar.push_back(v);
    }
    out->mar.push_back(std::move(mar));
  }
  return true;
}

uint64_t Digest(uint64_t h, const std::string& bytes) {
  const tbc::ContentHash c = tbc::HashBytes(bytes.data(), bytes.size());
  return Mix(h ^ c.lo, c.hi);
}

}  // namespace perfbench
