// Cross-engine property suite (parameterized): every compilation pipeline
// in the library must agree with every other — and with brute force — on
// satisfiability, model count, WMC and per-instance evaluation, for every
// vtree/order. This is the library's strongest integration invariant: the
// paper's Fig 12 taxonomy describes many circuit languages for the SAME
// Boolean function.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <tuple>

#include "analysis/diagnostics.h"
#include "analysis/nnf_analyzer.h"
#include "analysis/obdd_analyzer.h"
#include "analysis/sdd_analyzer.h"
#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "nnf/properties.h"
#include "nnf/queries.h"
#include "obdd/obdd.h"
#include "obdd/ordering.h"
#include "sdd/compile.h"
#include "sdd/from_obdd.h"
#include "sdd/sdd.h"
#include "vtree/vtree.h"

namespace tbc {
namespace {

Cnf RandomCnf(size_t n, size_t m, size_t k, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf(n);
  for (size_t i = 0; i < m; ++i) {
    std::set<Var> vars;
    while (vars.size() < k) vars.insert(static_cast<Var>(rng.Below(n)));
    Clause c;
    for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
    cnf.AddClause(c);
  }
  return cnf;
}

// Parameter: (seed, num_vars, clause_factor_x10).
using EngineParam = std::tuple<uint64_t, size_t, size_t>;

class CrossEngineTest : public ::testing::TestWithParam<EngineParam> {
 protected:
  Cnf MakeCnf() const {
    const auto [seed, n, factor10] = GetParam();
    return RandomCnf(n, n * factor10 / 10, 3, seed * 7919 + 13);
  }
};

TEST_P(CrossEngineTest, AllEnginesAgreeOnCountsAndSemantics) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  const uint64_t brute = cnf.CountModelsBruteForce();

  // Engine 1: top-down Decision-DNNF compiler.
  NnfManager nnf;
  DdnnfCompiler ddnnf_compiler;
  const NnfId ddnnf = ddnnf_compiler.Compile(cnf, nnf);
  EXPECT_EQ(ModelCount(nnf, ddnnf, n).ToU64(), brute);

  // Engine 2: direct model counter (same search, no trace).
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf).ToU64(), brute);

  // Engine 3: OBDD, identity and FORCE orders.
  for (bool use_force : {false, true}) {
    const std::vector<Var> order =
        use_force ? ForceOrder(cnf, 5) : Vtree::IdentityOrder(n);
    ObddManager obdd(order);
    const ObddId f = obdd.CompileCnf(cnf);
    ASSERT_EQ(obdd.ModelCount(f).ToU64(), brute) << "force=" << use_force;
  }

  // Engine 4: SDD over balanced / right-linear / random vtrees.
  Rng vtree_rng(std::get<0>(GetParam()));
  for (int shape = 0; shape < 3; ++shape) {
    Vtree vt = shape == 0   ? Vtree::Balanced(Vtree::IdentityOrder(n))
               : shape == 1 ? Vtree::RightLinear(Vtree::IdentityOrder(n))
                            : Vtree::Random(Vtree::IdentityOrder(n), vtree_rng);
    SddManager sdd(std::move(vt));
    const SddId f = CompileCnf(sdd, cnf);
    ASSERT_EQ(sdd.ModelCount(f).ToU64(), brute) << "shape " << shape;
  }
}

TEST_P(CrossEngineTest, WmcAgreesAcrossEngines) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  ObddManager obdd(Vtree::IdentityOrder(n));
  const ObddId bdd = obdd.CompileCnf(cnf);
  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(sdd, cnf);

  // Extreme mode scales both literal weights of even variables by 2^-600
  // and of odd ones by 2^600 (an unpaired last variable stays unscaled).
  // Every model then weighs an ordinary double, and so does the WMC, but
  // a product of two same-parity literals already leaves double range: an
  // engine that accumulates in plain double returns 0, inf or NaN.
  for (const bool extreme : {false, true}) {
    WeightMap w(n);
    Rng rng(std::get<0>(GetParam()) + 999);
    for (Var v = 0; v < n; ++v) {
      const double p = 0.1 + 0.8 * rng.Uniform();
      const int scale = !extreme || (n % 2 == 1 && v == n - 1) ? 0
                        : v % 2 == 0                            ? -600
                                                                : 600;
      w.Set(Pos(v), std::ldexp(p, scale));
      w.Set(Neg(v), std::ldexp(1.0 - p, scale));
    }
    const double via_circuit = Wmc(nnf, root, w);
    ModelCounter counter;
    const double via_counter = counter.Wmc(cnf, w);
    const double via_obdd = obdd.Wmc(bdd, w);
    const double via_sdd = sdd.Wmc(f, w);
    if (!extreme) {
      EXPECT_NEAR(via_counter, via_circuit, 1e-10);
      EXPECT_NEAR(via_obdd, via_circuit, 1e-10);
      EXPECT_NEAR(via_sdd, via_circuit, 1e-10);
      continue;
    }
    // Relative error against the counter: each engine sums the same terms
    // in its own order, a few ulps apart.
    ASSERT_TRUE(std::isnormal(via_counter) || via_counter == 0.0);
    const double tol = 1e-12 * std::fabs(via_counter);
    EXPECT_NEAR(via_circuit, via_counter, tol) << "d-DNNF, extreme weights";
    EXPECT_NEAR(via_obdd, via_counter, tol) << "OBDD, extreme weights";
    EXPECT_NEAR(via_sdd, via_counter, tol) << "SDD, extreme weights";
  }
}

TEST_P(CrossEngineTest, ObddToSddPreservesFunction) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  ObddManager obdd(Vtree::IdentityOrder(n));
  const ObddId f = obdd.CompileCnf(cnf);
  SddManager sdd(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId g = ObddToSdd(obdd, f, sdd);
  EXPECT_EQ(sdd.ModelCount(g).ToU64(), obdd.ModelCount(f).ToU64());
  // Spot-check semantics.
  Rng rng(std::get<0>(GetParam()) + 5);
  for (int i = 0; i < 32; ++i) {
    Assignment x(n);
    for (Var v = 0; v < n; ++v) x[v] = rng.Flip(0.5);
    ASSERT_EQ(sdd.Evaluate(g, x), obdd.Evaluate(f, x));
  }
}

TEST_P(CrossEngineTest, CompiledCircuitsAreDecomposableAndDeterministic) {
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();
  if (n > 12) GTEST_SKIP() << "exhaustive determinism check too large";
  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  EXPECT_TRUE(IsDecomposable(nnf, root));
  EXPECT_TRUE(IsDeterministicExhaustive(nnf, root, n));

  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(n)));
  NnfManager nnf2;
  const NnfId exported = sdd.ToNnf(CompileCnf(sdd, cnf), nnf2);
  EXPECT_TRUE(IsDecomposable(nnf2, exported));
  EXPECT_TRUE(IsDeterministicExhaustive(nnf2, exported, n));
}

TEST_P(CrossEngineTest, StaticAnalyzerAcceptsEveryEngineArtifact) {
  // The invariant analyzer is an independent checker: whatever the
  // equivalence sweep compiles must also verify clean statically.
  const Cnf cnf = MakeCnf();
  const size_t n = cnf.num_vars();

  NnfManager nnf;
  DdnnfCompiler compiler;
  const NnfId root = compiler.Compile(cnf, nnf);
  DiagnosticReport nnf_report;
  NnfAnalysisOptions options;
  options.dialect = NnfDialect::kDecisionDnnf;
  options.expected_num_vars = n;
  AnalyzeNnf(nnf, root, options, nnf_report);
  EXPECT_TRUE(nnf_report.clean()) << nnf_report.ToText("ddnnf");

  ObddManager obdd(Vtree::IdentityOrder(n));
  DiagnosticReport obdd_report;
  AnalyzeObdd(obdd, obdd.CompileCnf(cnf), obdd_report);
  EXPECT_TRUE(obdd_report.empty()) << obdd_report.ToText("obdd");

  SddManager sdd(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(sdd, cnf);
  DiagnosticReport sdd_report;
  AnalyzeSdd(sdd, f, SddAnalysisOptions{}, sdd_report);
  EXPECT_TRUE(sdd_report.empty()) << sdd_report.ToText("sdd");
}

INSTANTIATE_TEST_SUITE_P(
    RandomCnfSweep, CrossEngineTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),   // seeds
                       ::testing::Values(8, 11, 14),          // num_vars
                       ::testing::Values(20, 35, 42)),        // clauses = f/10 * n
    [](const ::testing::TestParamInfo<EngineParam>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_f" +
             std::to_string(std::get<2>(info.param));
    });

// ObddManager::Wmc keeps its last root's export: alternating roots, with
// nodes added between queries, must each equal, bit for bit, a fresh
// ToNnf evaluated in a new NnfManager.
TEST(ObddExportCacheTest, AlternatingRootsAfterGrowthMatchFreshExports) {
  const size_t n = 12;
  ObddManager obdd(Vtree::IdentityOrder(n));
  WeightMap w(n);
  Rng rng(77);
  for (Var v = 0; v < n; ++v) {
    const double p = 0.05 + 0.9 * rng.Uniform();
    w.Set(Pos(v), p);
    w.Set(Neg(v), 1.0 - p);
  }
  const auto expect_fresh = [&](ObddId f, const char* where) {
    NnfManager fresh;
    const NnfId root = obdd.ToNnf(f, fresh);
    EXPECT_EQ(std::bit_cast<uint64_t>(obdd.Wmc(f, w)),
              std::bit_cast<uint64_t>(Wmc(fresh, root, w)))
        << where;
    EXPECT_EQ(obdd.ModelCount(f), ModelCount(fresh, root, n)) << where;
  };
  const ObddId f = obdd.CompileCnf(RandomCnf(n, 26, 3, 5));
  expect_fresh(f, "f");
  const ObddId g = obdd.CompileCnf(RandomCnf(n, 26, 3, 6));
  ASSERT_NE(obdd.Wmc(f, w), obdd.Wmc(g, w));
  expect_fresh(g, "g, compiled after f was exported");
  expect_fresh(f, "f after g");
  const ObddId h = obdd.Or(f, g);
  expect_fresh(h, "f or g");
  expect_fresh(f, "f after f or g");
}

}  // namespace
}  // namespace tbc
