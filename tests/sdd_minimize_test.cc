// Property tests for in-place dynamic vtree minimization: every rotate /
// swap step applied to a live SDD must preserve the compiled function
// (model count, weighted model count, evaluation), keep the manager
// analyzer-clean, and stay in lockstep with the recompilation oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/sdd_analyzer.h"
#include "base/guard.h"
#include "base/random.h"
#include "nnf/queries.h"
#include "sdd/compile.h"
#include "sdd/io.h"
#include "sdd/minimize.h"
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

void ExpectAnalyzerClean(SddManager& mgr, SddId root, const char* where) {
  DiagnosticReport report;
  AnalyzeSdd(mgr, root, SddAnalysisOptions{}, report);
  EXPECT_TRUE(report.clean()) << where << ":\n" << report.ToText("sdd");
}

WeightMap SkewedWeights(size_t num_vars) {
  WeightMap w(num_vars);
  for (Var v = 0; v < num_vars; ++v) {
    w.Set(Pos(v), 0.25 + 0.1 * static_cast<double>(v % 5));
    w.Set(Neg(v), 1.0);
  }
  return w;
}

// The core per-step oracle: apply every edit kind at every vtree node of a
// compiled SDD; each applied step must preserve model count, WMC, and
// analyzer cleanliness, and undoing it via the exact inverse must restore
// the original size.
TEST(SddInPlaceEditTest, EveryEditPreservesSemanticsAndUndoes) {
  for (const uint64_t seed : {11u, 47u}) {
    const Cnf cnf = RandomCnf(8, 18, 3, seed);
    for (int shape = 0; shape < 2; ++shape) {
      SddManager mgr(shape == 0
                         ? Vtree::Balanced(Vtree::IdentityOrder(8))
                         : Vtree::RightLinear(Vtree::IdentityOrder(8)));
      SddId f = CompileCnf(mgr, cnf);
      const uint64_t models = cnf.CountModelsBruteForce();
      ASSERT_EQ(mgr.ModelCount(f).ToU64(), models);
      const WeightMap weights = SkewedWeights(8);
      const double wmc = mgr.Wmc(f, weights);
      for (VtreeId v = 0; v < mgr.vtree().num_nodes(); ++v) {
        for (int op = 0; op < 3; ++op) {
          const size_t size_before = mgr.Size(f);
          const SddEditResult r = op == 0   ? mgr.RotateRightInPlace(v)
                                  : op == 1 ? mgr.RotateLeftInPlace(v)
                                            : mgr.SwapChildrenInPlace(v);
          EXPECT_FALSE(r.aborted);
          if (!r.applied) continue;
          f = mgr.Resolve(f);
          EXPECT_EQ(mgr.ModelCount(f).ToU64(), models);
          EXPECT_NEAR(mgr.Wmc(f, weights), wmc, 1e-9 * (1.0 + wmc));
          ExpectAnalyzerClean(mgr, f, "after edit");
          // Exact inverse restores the vtree and (by canonicity) the size.
          const SddEditResult undo = op == 0   ? mgr.RotateLeftInPlace(v)
                                     : op == 1 ? mgr.RotateRightInPlace(v)
                                               : mgr.SwapChildrenInPlace(v);
          ASSERT_TRUE(undo.applied);
          f = mgr.Resolve(f);
          EXPECT_EQ(mgr.Size(f), size_before);
          EXPECT_EQ(mgr.ModelCount(f).ToU64(), models);
        }
      }
      ExpectAnalyzerClean(mgr, f, "after sweep");
    }
  }
}

// After an in-place edit the live SDD must equal what a fresh compilation
// under the mutated vtree produces — the canonicity statement that makes
// in-place search interchangeable with recompilation.
TEST(SddInPlaceEditTest, EditedSddMatchesFreshRecompilation) {
  const Cnf cnf = RandomCnf(9, 20, 3, 77);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(9)));
  SddId f = CompileCnf(mgr, cnf);
  Rng rng(5);
  size_t checked = 0;
  for (size_t step = 0; step < 40; ++step) {
    const VtreeId v = static_cast<VtreeId>(rng.Below(mgr.vtree().num_nodes()));
    const int op = static_cast<int>(rng.Below(3));
    const SddEditResult r = op == 0   ? mgr.RotateRightInPlace(v)
                            : op == 1 ? mgr.RotateLeftInPlace(v)
                                      : mgr.SwapChildrenInPlace(v);
    if (!r.applied) continue;
    f = mgr.Resolve(f);
    SddManager fresh(mgr.vtree());
    const SddId g = CompileCnf(fresh, cnf);
    EXPECT_EQ(mgr.Size(f), fresh.Size(g));
    EXPECT_EQ(mgr.NumDecisionNodes(f), fresh.NumDecisionNodes(g));
    EXPECT_EQ(mgr.ModelCount(f).ToU64(), fresh.ModelCount(g).ToU64());
    ++checked;
  }
  EXPECT_GT(checked, 10u);  // the walk actually exercised edits
}

// Forwarding pointers: a reclaimed node resolves to a live survivor, the
// live count excludes it, and external ids stay usable through Resolve().
TEST(SddInPlaceEditTest, ReclamationForwardsAndLiveCountBalances) {
  const Cnf cnf = RandomCnf(10, 26, 3, 13);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(10)));
  SddId f = CompileCnf(mgr, cnf);
  const uint64_t models = cnf.CountModelsBruteForce();
  Rng rng(3);
  size_t reclaimed_total = 0;
  for (size_t step = 0; step < 60; ++step) {
    const VtreeId v = static_cast<VtreeId>(rng.Below(mgr.vtree().num_nodes()));
    const int op = static_cast<int>(rng.Below(3));
    const SddEditResult r = op == 0   ? mgr.RotateRightInPlace(v)
                            : op == 1 ? mgr.RotateLeftInPlace(v)
                                      : mgr.SwapChildrenInPlace(v);
    reclaimed_total += r.reclaimed;
    f = mgr.Resolve(f);
    ASSERT_FALSE(mgr.IsDead(f));  // Resolve always lands on a live node
  }
  EXPECT_GT(reclaimed_total, 0u);  // rotations on a linear vtree do retire nodes
  EXPECT_LE(mgr.live_node_count() + 2, mgr.num_nodes());
  EXPECT_EQ(mgr.ModelCount(f).ToU64(), models);
}

// The in-place search must be deterministic for a fixed seed and must
// count every attempted neighbor, applicable or not.
TEST(SddInPlaceMinimizeTest, DeterministicAndCountsIterations) {
  const Cnf cnf = RandomCnf(10, 24, 3, 321);
  const Vtree initial = Vtree::RightLinear(Vtree::IdentityOrder(10));
  const MinimizeResult a = MinimizeVtree(cnf, initial, 80, 17);
  const MinimizeResult b = MinimizeVtree(cnf, initial, 80, 17);
  EXPECT_EQ(a.iterations, 80u);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.vtree.ToString(), b.vtree.ToString());
  EXPECT_LE(a.size, a.initial_size);
  // Returned (vtree, size) pairs are consistent: recompiling under the
  // returned vtree reproduces the reported size.
  SddManager check(a.vtree);
  EXPECT_EQ(check.Size(CompileCnf(check, cnf)) + 1, a.size);
}

// The recompilation-based search is the oracle: from the same start it
// explores the same neighborhood, so the in-place search must land on an
// equally small (or smaller) SDD given the same budget and seed.
TEST(SddInPlaceMinimizeTest, MatchesRecompileOracle) {
  const Cnf cnf = RandomCnf(10, 22, 3, 99);
  const Vtree initial = Vtree::RightLinear(Vtree::IdentityOrder(10));
  const MinimizeResult inplace = MinimizeVtree(cnf, initial, 120, 41);
  const MinimizeResult recompile =
      MinimizeVtreeByRecompile(cnf, initial, 120, 41, Guard::Unlimited());
  EXPECT_EQ(inplace.initial_size, recompile.initial_size);
  EXPECT_LE(inplace.size, recompile.size);
  // Both ends of the comparison still represent the same function.
  SddManager m1(inplace.vtree);
  SddManager m2(recompile.vtree);
  EXPECT_EQ(m1.ModelCount(CompileCnf(m1, cnf)).ToU64(),
            m2.ModelCount(CompileCnf(m2, cnf)).ToU64());
}

// MinimizeSddInPlace on a caller-owned manager: the root is re-homed, the
// incumbent never grows, and the pass reports its edit accounting.
TEST(SddInPlaceMinimizeTest, MinimizesCallerOwnedManager) {
  const Cnf cnf = RandomCnf(12, 30, 3, 1234);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(12)));
  const SddId f = CompileCnf(mgr, cnf);
  const uint64_t models = cnf.CountModelsBruteForce();
  const SddInPlaceMinimizeResult r = MinimizeSddInPlace(mgr, f, 100, 7);
  EXPECT_FALSE(r.interrupted);
  EXPECT_EQ(r.iterations, 100u);
  EXPECT_LE(r.size, r.initial_size);
  EXPECT_EQ(mgr.Size(mgr.Resolve(f)), r.size);  // old handle still resolves
  EXPECT_EQ(mgr.ModelCount(r.root).ToU64(), models);
  EXPECT_GT(r.applied, 0u);
}

// The size-triggered hook: an aggressive policy on a growing compilation
// must fire, and the compiled function must be unaffected.
TEST(SddAutoMinimizeTest, TriggerFiresAndPreservesFunction) {
  const Cnf cnf = RandomCnf(14, 40, 3, 2024);
  SddManager plain(Vtree::RightLinear(Vtree::IdentityOrder(14)));
  const SddId reference = CompileCnf(plain, cnf);
  const BigUint models = plain.ModelCount(reference);

  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(14)));
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAggressive);
  opts.min_live_nodes = 32;  // fire early on this small instance
  mgr.set_auto_minimize(opts);
  const SddId f = CompileCnf(mgr, cnf);
  EXPECT_GT(mgr.auto_minimize_fires(), 0u);
  EXPECT_EQ(mgr.ModelCount(f), models);
  ExpectAnalyzerClean(mgr, f, "after auto-minimize");
  // Auto-minimize must not *grow* the artifact the caller gets back.
  EXPECT_LE(mgr.Size(f), plain.Size(reference));
}

// Off mode never fires; the process-wide default reaches new managers.
TEST(SddAutoMinimizeTest, DefaultPolicyIsCopiedAtConstruction) {
  const SddAutoMinimizeOptions saved = SddManager::DefaultAutoMinimize();
  SddAutoMinimizeOptions opts =
      SddAutoMinimizeOptions::ForMode(SddMinimizeMode::kAuto);
  opts.min_live_nodes = 64;
  SddManager::SetDefaultAutoMinimize(opts);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(4)));
  EXPECT_EQ(mgr.auto_minimize().mode, SddMinimizeMode::kAuto);
  EXPECT_EQ(mgr.auto_minimize().min_live_nodes, 64u);
  SddManager::SetDefaultAutoMinimize(saved);
  SddManager off(Vtree::Balanced(Vtree::IdentityOrder(4)));
  EXPECT_EQ(off.auto_minimize().mode, SddMinimizeMode::kOff);
  const SddId t = off.MaybeAutoMinimize(off.True());
  EXPECT_EQ(t, off.True());
  EXPECT_EQ(off.auto_minimize_fires(), 0u);
}

// An aborted edit (node budget tripped mid-rewrite) must roll back to a
// consistent state: same vtree, same function, manager reusable after
// ClearInterrupt.
TEST(SddInPlaceEditTest, AbortRollsBackCompletely) {
  const Cnf cnf = RandomCnf(12, 32, 3, 555);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(12)));
  const SddId f = CompileCnf(mgr, cnf);
  const uint64_t models = cnf.CountModelsBruteForce();
  const std::string vtree_before = mgr.vtree().ToString();
  const size_t size_before = mgr.Size(f);
  // A one-node budget trips on the first fresh intern inside any rewrite.
  // Rotate LEFT: on a right-linear vtree that is the op that always finds
  // an internal right child to pull up (rotate right never applies).
  size_t aborted = 0;
  for (VtreeId v = 0; v < mgr.vtree().num_nodes() && aborted == 0; ++v) {
    Guard tight(Budget::NodeLimit(1));
    mgr.set_guard(&tight);
    const SddEditResult r = mgr.RotateLeftInPlace(v);
    mgr.set_guard(nullptr);
    if (r.aborted) {
      ++aborted;
      mgr.ClearInterrupt();
    } else if (r.applied) {
      // Small fragment fit under the budget; undo to keep the baseline.
      ASSERT_TRUE(mgr.RotateRightInPlace(v).applied);
      mgr.ClearInterrupt();
    }
  }
  ASSERT_EQ(aborted, 1u);
  EXPECT_EQ(mgr.vtree().ToString(), vtree_before);
  const SddId g = mgr.Resolve(f);
  EXPECT_EQ(mgr.Size(g), size_before);
  EXPECT_EQ(mgr.ModelCount(g).ToU64(), models);
  ExpectAnalyzerClean(mgr, g, "after abort");
  // The manager still compiles correctly afterwards.
  Cnf tiny(2);
  tiny.AddClause({Pos(0), Pos(1)});
  SddManager fresh(Vtree::Balanced({0, 1}));
  EXPECT_EQ(mgr.ModelCount(mgr.Resolve(f)).ToU64(), models);
  EXPECT_EQ(fresh.ModelCount(CompileCnf(fresh, tiny)).ToU64(), 3u);
}

// GarbageCollect rebuilds the manager down to the root's reachable
// subgraph: the function survives exactly, the live count drops to the
// reachable node count, and in-place edits on the collected manager stay
// analyzer-clean (this is what makes post-compile minimization local).
TEST(SddGarbageCollectTest, CollectsToReachableAndPreservesFunction) {
  const size_t n = 14;
  const Cnf cnf = RandomCnf(n, 40, 3, 23);
  const WeightMap weights = SkewedWeights(n);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  SddId root = CompileCnf(mgr, cnf);
  const uint64_t models = mgr.ModelCount(root).ToU64();
  const double wmc = mgr.Wmc(root, weights);
  const size_t size = mgr.Size(root);
  const size_t nodes = mgr.NumDecisionNodes(root);
  ASSERT_GT(mgr.live_node_count(), nodes)
      << "compilation should leave dead intermediates to collect";

  root = mgr.GarbageCollect(root);
  EXPECT_EQ(mgr.ModelCount(root).ToU64(), models);
  EXPECT_NEAR(mgr.Wmc(root, weights), wmc, 1e-9 * (1.0 + wmc));
  EXPECT_EQ(mgr.Size(root), size);
  EXPECT_EQ(mgr.NumDecisionNodes(root), nodes);
  // Live nodes = the root's decision nodes + its literal nodes, nothing
  // else; a second collect finds nothing more to drop.
  const size_t live = mgr.live_node_count();
  EXPECT_LE(live, nodes + 2 * n);
  root = mgr.GarbageCollect(root);
  EXPECT_EQ(mgr.live_node_count(), live);
  ExpectAnalyzerClean(mgr, root, "after GarbageCollect");

  // The collected manager supports further in-place minimization.
  const SddInPlaceMinimizeResult r = MinimizeSddInPlace(mgr, root, 30, 7);
  root = mgr.Resolve(r.root);
  EXPECT_EQ(mgr.ModelCount(root).ToU64(), models);
  EXPECT_LE(r.size, size);
  ExpectAnalyzerClean(mgr, root, "after post-collect minimize");
}

// Constant roots collapse the manager to just the constants.
TEST(SddGarbageCollectTest, ConstantRootResetsManager) {
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(6)));
  Cnf unsat(6);
  unsat.AddClause({Pos(0)});
  unsat.AddClause({Neg(0)});
  const SddId f = CompileCnf(mgr, unsat);
  ASSERT_EQ(f, mgr.False());
  const SddId g = mgr.GarbageCollect(f);
  EXPECT_EQ(g, mgr.False());
  EXPECT_EQ(mgr.live_node_count(), 0u);
}

// ---- The export slot behind SddManager::ModelCount / Wmc ----
//
// Every query must equal, bit for bit, a fresh ToNnf into a new NnfManager
// evaluated by the circuit queries: the slot may only ever save work.

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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ModelCount, then Wmc under each weight map, against a fresh export.
void ExpectMatchesFreshExport(SddManager& mgr, SddId f,
                              const std::vector<WeightMap>& weights,
                              const std::string& where) {
  NnfManager fresh;
  const NnfId root = mgr.ToNnf(f, fresh);
  EXPECT_EQ(mgr.ModelCount(f), ModelCount(fresh, root, mgr.num_vars())) << where;
  for (const WeightMap& w : weights) {
    EXPECT_EQ(Bits(mgr.Wmc(f, w)), Bits(Wmc(fresh, root, w))) << where;
  }
}

std::vector<WeightMap> WeightSweep(size_t num_vars) {
  std::vector<WeightMap> out;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    out.push_back(RandomWeights(num_vars, seed));
  }
  return out;
}

TEST(SddExportCacheTest, AlternatingRootsMatchFreshExports) {
  const size_t n = 14;
  const std::vector<WeightMap> weights = WeightSweep(n);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, RandomCnf(n, 30, 3, 101));
  const SddId g = CompileCnf(mgr, RandomCnf(n, 30, 3, 202));
  ASSERT_NE(Bits(mgr.Wmc(f, weights[0])), Bits(mgr.Wmc(g, weights[0])));
  ExpectMatchesFreshExport(mgr, f, weights, "f");
  ExpectMatchesFreshExport(mgr, g, weights, "g after f");
  ExpectMatchesFreshExport(mgr, f, weights, "f after g");
  // A root created after the export is cached.
  const SddId h = mgr.Conjoin(f, mgr.LiteralNode(Neg(3)));
  ExpectMatchesFreshExport(mgr, h, weights, "new root h");
  ExpectMatchesFreshExport(mgr, f, weights, "f after h");
}

// A committed edit rewrites partitions in place (and may reclaim the
// root): the query through Resolve() must see the edited structure.
TEST(SddExportCacheTest, CommittedEditsMatchFreshExports) {
  const size_t n = 12;
  const std::vector<WeightMap> weights = WeightSweep(n);
  SddManager mgr(Vtree::Balanced(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, RandomCnf(n, 28, 3, 303));
  ExpectMatchesFreshExport(mgr, f, weights, "before edits");
  size_t rotated = 0, swapped = 0;
  for (VtreeId v = 0; v < mgr.vtree().num_nodes(); ++v) {
    if (mgr.RotateRightInPlace(v).applied) {
      ++rotated;
      ExpectMatchesFreshExport(mgr, mgr.Resolve(f), weights,
                               "after rotate at " + std::to_string(v));
    }
    if (mgr.SwapChildrenInPlace(v).applied) {
      ++swapped;
      ExpectMatchesFreshExport(mgr, mgr.Resolve(f), weights,
                               "after swap at " + std::to_string(v));
    }
  }
  EXPECT_GT(rotated, 0u);
  EXPECT_GT(swapped, 0u);
}

TEST(SddExportCacheTest, AbortedEditMatchesFreshExport) {
  const size_t n = 12;
  const std::vector<WeightMap> weights = WeightSweep(n);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId f = CompileCnf(mgr, RandomCnf(n, 32, 3, 555));
  ExpectMatchesFreshExport(mgr, f, weights, "before abort");
  bool aborted = false;
  for (VtreeId v = 0; v < mgr.vtree().num_nodes() && !aborted; ++v) {
    Guard tight(Budget::NodeLimit(1));
    mgr.set_guard(&tight);
    const SddEditResult r = mgr.RotateLeftInPlace(v);
    mgr.set_guard(nullptr);
    mgr.ClearInterrupt();
    aborted = r.aborted;
    if (r.applied) {
      ExpectMatchesFreshExport(mgr, mgr.Resolve(f), weights, "after rotate");
    }
  }
  ASSERT_TRUE(aborted);
  ExpectMatchesFreshExport(mgr, mgr.Resolve(f), weights, "after abort");
  // Nodes created after the rollback reuse the truncated ids.
  const SddId g = CompileCnf(mgr, RandomCnf(n, 20, 3, 556));
  ExpectMatchesFreshExport(mgr, g, weights, "root built after abort");
  ExpectMatchesFreshExport(mgr, mgr.Resolve(f), weights, "f after g");
}

// GarbageCollect renumbers ids: a new function built at the collected
// root's old id must not be answered from the export held for that id.
TEST(SddExportCacheTest, GarbageCollectedIdReusedByNewRoot) {
  const size_t n = 14;
  const std::vector<WeightMap> weights = WeightSweep(n);
  SddManager mgr(Vtree::RightLinear(Vtree::IdentityOrder(n)));
  const SddId old_id = CompileCnf(mgr, RandomCnf(n, 40, 3, 23));
  ExpectMatchesFreshExport(mgr, old_id, weights, "before collect");
  const double old_wmc = mgr.Wmc(old_id, weights[0]);
  const SddId root = mgr.GarbageCollect(old_id);
  ASSERT_LT(root, old_id);
  // No query between the collect and the query at the old id: the slot
  // still names old_id unless GarbageCollect dropped it.
  for (uint64_t seed = 24; mgr.num_nodes() <= old_id && seed < 64; ++seed) {
    CompileCnf(mgr, RandomCnf(n, 40, 3, seed));
  }
  ASSERT_GT(mgr.num_nodes(), old_id);
  NnfManager fresh;
  ASSERT_NE(Bits(Wmc(fresh, mgr.ToNnf(old_id, fresh), weights[0])),
            Bits(old_wmc))
      << "the reused id should denote a different function";
  ExpectMatchesFreshExport(mgr, old_id, weights, "new root at the old id");
  ExpectMatchesFreshExport(mgr, root, weights, "collected root");
}

}  // namespace
}  // namespace tbc
