// Property tests for weighted model counting: the count is a function of
// the *formula*, not of its presentation. Two presentations are exercised —
// clause reordering (must be bit-identical: canonicalization sorts the
// clause list, so the DPLL trace is the same) and variable renaming (must
// agree to an ulp-scaled tolerance: the branch order changes, so the same
// sum is accumulated in a different order). The validate preset
// (TBC_VALIDATE=ON) runs this file unchanged with the self-checking
// assertions compiled in.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "base/logspace.h"
#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "logic/cnf.h"
#include "logic/lit.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

Cnf RandomCnf(size_t num_vars, size_t num_clauses, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(num_vars);
  for (size_t i = 0; i < num_clauses; ++i) {
    std::set<Var> vars;
    while (vars.size() < 3) {
      vars.insert(static_cast<Var>(rng.Below(num_vars)));
    }
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

WeightMap RandomWeights(size_t num_vars, uint64_t seed) {
  Rng rng(seed);
  WeightMap w(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    const double p = 0.05 + 0.9 * rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  return w;
}

std::vector<Var> RandomPermutation(size_t n, Rng& rng) {
  std::vector<Var> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<Var>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  return perm;
}

Cnf ShuffleClauses(const Cnf& cnf, Rng& rng) {
  std::vector<Clause> clauses = cnf.clauses();
  for (size_t i = clauses.size(); i > 1; --i) {
    std::swap(clauses[i - 1], clauses[rng.Below(i)]);
  }
  Cnf out(cnf.num_vars());
  for (Clause& c : clauses) out.AddClause(std::move(c));
  return out;
}

Cnf RenameVars(const Cnf& cnf, const std::vector<Var>& perm) {
  Cnf out(cnf.num_vars());
  for (const Clause& c : cnf.clauses()) {
    Clause renamed;
    renamed.reserve(c.size());
    for (const Lit l : c) renamed.push_back(Lit(perm[l.var()], l.positive()));
    out.AddClause(std::move(renamed));
  }
  return out;
}

WeightMap RenameWeights(const WeightMap& w, const std::vector<Var>& perm) {
  WeightMap out(w.num_vars());
  for (Var v = 0; v < w.num_vars(); ++v) {
    out.Set(Pos(perm[v]), w[Pos(v)]);
    out.Set(Neg(perm[v]), w[Neg(v)]);
  }
  return out;
}

TEST(WmcPropertyTest, InvariantUnderClauseReordering) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Cnf cnf = RandomCnf(14, 42, seed + 7000);
    const WeightMap w = RandomWeights(14, seed + 7100);
    ModelCounter counter;
    const double base = counter.Wmc(cnf, w);
    Rng rng(seed + 7200);
    for (int round = 0; round < 4; ++round) {
      const Cnf shuffled = ShuffleClauses(cnf, rng);
      ModelCounter fresh;
      // Bit-identical, not merely close: Canonicalize sorts the clause
      // list before the search, so the presentation order never reaches
      // the accumulator.
      EXPECT_EQ(fresh.Wmc(shuffled, w), base)
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(WmcPropertyTest, InvariantUnderVariableRenaming) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Cnf cnf = RandomCnf(14, 42, seed + 8000);
    const WeightMap w = RandomWeights(14, seed + 8100);
    ModelCounter counter;
    const double base = counter.Wmc(cnf, w);
    Rng rng(seed + 8200);
    for (int round = 0; round < 4; ++round) {
      const std::vector<Var> perm = RandomPermutation(14, rng);
      const Cnf renamed = RenameVars(cnf, perm);
      const WeightMap rw = RenameWeights(w, perm);
      ModelCounter fresh;
      const double got = fresh.Wmc(renamed, rw);
      // Renaming permutes the branch order, so the same sum accumulates in
      // a different order; allow an ulp-scaled tolerance (2^-40 relative,
      // ~8k ulps of headroom over the handful that actually occur).
      const double tol = std::ldexp(std::fabs(base), -40);
      EXPECT_NEAR(got, base, tol) << "seed " << seed << " round " << round;
    }
  }
}

TEST(WmcPropertyTest, ExactCountInvariantUnderRenaming) {
  // The integer counter has no rounding at all: renaming must preserve the
  // exact BigUint count.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Cnf cnf = RandomCnf(13, 36, seed + 9000);
    ModelCounter counter;
    const BigUint base = counter.Count(cnf);
    Rng rng(seed + 9100);
    const std::vector<Var> perm = RandomPermutation(13, rng);
    ModelCounter fresh;
    EXPECT_EQ(fresh.Count(RenameVars(cnf, perm)), base) << "seed " << seed;
  }
}

// 600 independent clauses (x ∨ y) over adjacent variable pairs. Variables
// 0..599 weigh 0.01 on both literals, 600..1199 weigh 20. WMC is
// 0.0003^300 · 1200^300 = 0.36^300 ≈ 7.78e-134, comfortably a double, but
// a product over the 300 light components alone, 0.0003^300 ≈ 1e-1057, is
// not: a circuit evaluated in plain double that multiplies them first
// returns 0. The d-DNNF, SDD and OBDD paths all end in the circuit
// evaluator, which accumulates in log space.
TEST(WmcPropertyTest, ExtremeWeightsSurviveEveryCircuitPath) {
  constexpr size_t kVars = 1200;
  Cnf cnf(kVars);
  for (Var v = 0; v < kVars; v += 2) cnf.AddClause({Pos(v), Pos(v + 1)});
  WeightMap w(kVars);
  for (Var v = 0; v < kVars; ++v) {
    const double x = v < kVars / 2 ? 0.01 : 20.0;
    w.Set(Pos(v), x);
    w.Set(Neg(v), x);
  }
  ModelCounter counter;
  const double expected = counter.Wmc(cnf, w);
  ASSERT_NEAR(expected, 7.77589e-134, 1e-138);
  // Relative bound: each path sums and multiplies ~1200 terms in its own
  // order, so a few hundred ulps at most; 1e-12 leaves ample headroom.
  auto near = [&](double got) {
    return std::fabs(got - expected) <= 1e-12 * expected;
  };

  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  EXPECT_PRED1(near, Wmc(nnf, root, w));
  const Result<double> bounded = WmcBounded(nnf, root, w, Guard::Unlimited());
  ASSERT_TRUE(bounded.ok());
  EXPECT_PRED1(near, *bounded);

  // The SDD is conjoined clause by clause rather than by CompileCnf: a
  // certify build checks every CompileCnf result with a complete DPLL
  // that has no component decomposition, and 600 independent clauses
  // exceed its decision budget.
  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(kVars)));
  SddId f = sdd.True();
  for (const Clause& c : cnf.clauses()) {
    f = sdd.Conjoin(
        f, sdd.Disjoin(sdd.LiteralNode(c[0]), sdd.LiteralNode(c[1])));
  }
  EXPECT_PRED1(near, sdd.Wmc(f, w));
  ObddManager obdd(Vtree::IdentityOrder(kVars));
  EXPECT_PRED1(near, obdd.Wmc(obdd.CompileCnf(cnf), w));

  // MAR: m(x) + m(¬x) = WMC for every variable.
  const std::vector<double> m = MarginalWmc(nnf, root, w);
  ASSERT_EQ(m.size(), 2 * kVars);
  for (Var v = 0; v < kVars; ++v) {
    EXPECT_GT(m[Pos(v).code()], 0.0) << "var " << v;
    EXPECT_PRED1(near, m[Pos(v).code()] + m[Neg(v).code()]) << "var " << v;
  }

  // MPE: each light clause's models weigh 1e-4, each heavy one's 400, so
  // the maximum is 0.04^300 ≈ 1e-419 — below double range, but exact in
  // log space, and equal to the weight of the returned assignment.
  const MpeResult mpe = MaxWmc(nnf, root, w, kVars);
  ASSERT_FALSE(mpe.scaled_weight.IsZero());
  EXPECT_NEAR(mpe.scaled_weight.Log2Abs(), 300 * std::log2(0.04), 1e-9);
  ScaledDouble own = ScaledDouble::One();
  for (Var v = 0; v < kVars; ++v) {
    own *= ScaledDouble::FromDouble(w[Lit(v, mpe.assignment[v])]);
  }
  EXPECT_EQ(own.mantissa(), mpe.scaled_weight.mantissa());
  EXPECT_EQ(own.exponent(), mpe.scaled_weight.exponent());
  EXPECT_TRUE(cnf.Evaluate(mpe.assignment));
}

}  // namespace
}  // namespace tbc
