// Seeded input generation and the independent correctness oracle.
//
// Every input of a workload is a seeded renaming of one fixed base
// instance: variables permuted, clauses shuffled. A renaming has its own
// bytes, hence its own cache key, while its compile and query cost stays
// in the base's cost class. Weighted and model counts do not change under
// renaming, so the oracle is computed once per base, in base variable
// space, by ModelCounter (the direct DPLL counter, which builds no
// circuit) and mapped through each renaming when answers are checked.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "logic/cnf.h"
#include "logic/lit.h"

namespace perfbench {

enum class Family {
  /// Classic WmcEncoding of BayesianNetwork::RandomBinary(40, 3, 143):
  /// 360 Boolean variables, 1252 clauses, a ~15k-edge d-DNNF.
  kBayes,
  /// Random 3-CNF with n=30, m=75 (generator seed 24).
  kRandom3Cnf,
};

/// A base instance and its seeded pool of weight/evidence vectors.
struct Base {
  Family family = Family::kBayes;
  tbc::Cnf cnf;
  /// Weight vectors in base variable space. On kBayes each is the network
  /// weights with seeded evidence on three network variables; on
  /// kRandom3Cnf each literal gets a seeded weight in [0.1, 1.1).
  std::vector<tbc::WeightMap> pool;
  /// Per pool entry, base literals whose marginal WMC the oracle pins.
  std::vector<std::vector<tbc::Lit>> probes;
};

/// Builds the family's base; the pool depends on `seed`, the CNF does not.
Base MakeBase(Family family, uint64_t seed, size_t pool_size);

/// One renaming of a base CNF.
struct Renamed {
  std::vector<tbc::Var> perm;  // base variable -> renamed variable
  tbc::Cnf cnf;                // renamed clauses, shuffled
  std::string body;            // DIMACS of `cnf`
};
Renamed Rename(const tbc::Cnf& base, uint64_t seed);

/// DIMACS text with a leading comment naming the input. The comment makes
/// the bytes, and so the cache key, unique per (seed, tag) even when two
/// texts share a renaming; parsers skip it.
std::string Tagged(const Renamed& r, const std::string& tag);

tbc::Lit RenameLit(tbc::Lit l, const std::vector<tbc::Var>& perm);
tbc::WeightMap RenameWeights(const tbc::WeightMap& w,
                             const std::vector<tbc::Var>& perm);
/// The request form of a weight map: every literal whose weight is not 1.
std::vector<std::pair<int, double>> WireWeights(const tbc::WeightMap& w);

/// Answers computed by ModelCounter on the base.
struct Oracle {
  std::string count;                 // exact model count, decimal
  std::vector<double> wmc;           // per pool entry
  std::vector<std::vector<double>> mar;  // per pool entry, per probe
};
Oracle ComputeOracle(const Base& base);
std::string FormatOracle(const Oracle& o);
bool ParseOracle(const std::string& text, const Base& base, Oracle* out);

/// 64-bit digest of bytes, chained (for the generator determinism check).
uint64_t Digest(uint64_t h, const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
