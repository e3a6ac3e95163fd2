#include <gtest/gtest.h>
#include <pthread.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "base/observability.h"
#include "base/random.h"
#include "compiler/ddnnf_compiler.h"
#include "compiler/model_counter.h"
#include "compiler/subproblem.h"
#include "nnf/properties.h"
#include "nnf/queries.h"

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

TEST(DdnnfCompilerTest, TrivialInputs) {
  NnfManager m;
  DdnnfCompiler compiler;
  Cnf empty(3);
  EXPECT_EQ(compiler.Compile(empty, m), m.True());
  Cnf contradiction(2);
  contradiction.AddClauseDimacs({1});
  contradiction.AddClauseDimacs({-1});
  EXPECT_EQ(compiler.Compile(contradiction, m), m.False());
  Cnf unit(2);
  unit.AddClauseDimacs({-2});
  NnfId f = compiler.Compile(unit, m);
  EXPECT_EQ(f, m.Literal(Neg(1)));
}

TEST(DdnnfCompilerTest, OutputIsDecisionDnnf) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Cnf cnf = RandomCnf(10, 26, 3, seed);
    NnfManager m;
    DdnnfCompiler compiler;
    NnfId root = compiler.Compile(cnf, m);
    EXPECT_TRUE(IsDecomposable(m, root)) << "seed " << seed;
    EXPECT_TRUE(IsDeterministicExhaustive(m, root, 10)) << "seed " << seed;
  }
}

TEST(DdnnfCompilerTest, CountsMatchBruteForce) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Cnf cnf = RandomCnf(11, 30, 3, seed + 300);
    NnfManager m;
    DdnnfCompiler compiler;
    NnfId root = compiler.Compile(cnf, m);
    EXPECT_EQ(ModelCount(m, root, 11).ToU64(), cnf.CountModelsBruteForce())
        << "seed " << seed;
  }
}

TEST(DdnnfCompilerTest, EquivalentToInputFormula) {
  Cnf cnf = RandomCnf(9, 20, 3, 17);
  NnfManager m;
  DdnnfCompiler compiler;
  NnfId root = compiler.Compile(cnf, m);
  for (int bits = 0; bits < (1 << 9); ++bits) {
    Assignment a(9);
    for (Var v = 0; v < 9; ++v) a[v] = (bits >> v) & 1;
    ASSERT_EQ(m.Evaluate(root, a), cnf.Evaluate(a));
  }
}

TEST(DdnnfCompilerTest, AblationsPreserveCorrectness) {
  for (uint64_t seed = 40; seed < 48; ++seed) {
    Cnf cnf = RandomCnf(10, 24, 3, seed);
    const uint64_t expected = cnf.CountModelsBruteForce();
    for (bool comps : {false, true}) {
      for (bool cache : {false, true}) {
        NnfManager m;
        DdnnfCompiler compiler({.use_components = comps, .use_cache = cache});
        NnfId root = compiler.Compile(cnf, m);
        ASSERT_EQ(ModelCount(m, root, 10).ToU64(), expected)
            << "seed " << seed << " comps " << comps << " cache " << cache;
      }
    }
  }
}

TEST(DdnnfCompilerTest, ComponentsAndCacheReduceWork) {
  // Two independent subformulas: decomposition should fire, and caching
  // should hit on repeated components.
  Cnf cnf(16);
  Rng rng(3);
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 18; ++i) {
      std::set<Var> vars;
      while (vars.size() < 3) {
        vars.insert(static_cast<Var>(8 * half + rng.Below(8)));
      }
      Clause c;
      for (Var v : vars) c.push_back(Lit(v, rng.Flip(0.5)));
      cnf.AddClause(c);
    }
  }
  NnfManager m1, m2;
  DdnnfCompiler with({.use_components = true, .use_cache = true});
  DdnnfCompiler without({.use_components = false, .use_cache = false});
  NnfId r1 = with.Compile(cnf, m1);
  NnfId r2 = without.Compile(cnf, m2);
  EXPECT_EQ(ModelCount(m1, r1, 16), ModelCount(m2, r2, 16));
  EXPECT_GT(with.stats().components_split, 0u);
  EXPECT_LE(with.stats().decisions, without.stats().decisions);
}

TEST(ModelCounterTest, MatchesBruteForce) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Cnf cnf = RandomCnf(12, 34, 3, seed + 900);
    ModelCounter counter;
    EXPECT_EQ(counter.Count(cnf).ToU64(), cnf.CountModelsBruteForce())
        << "seed " << seed;
  }
}

TEST(ModelCounterTest, FreeVariablesAndEmptyCnf) {
  Cnf cnf(5);
  cnf.AddClauseDimacs({1, 2});
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf), BigUint(3 * 8));
  Cnf empty(20);
  EXPECT_EQ(counter.Count(empty), BigUint::PowerOfTwo(20));
}

TEST(ModelCounterTest, LargeStructuredInstance) {
  // Chain of implications x0 -> x1 -> ... -> x39: models are the 41
  // monotone step patterns... for implications models = prefixes of 0s then
  // 1s? x_i -> x_{i+1}: models are exactly the up-sets: 41 models.
  Cnf cnf(40);
  for (int i = 0; i < 39; ++i) cnf.AddClauseDimacs({-(i + 1), i + 2});
  ModelCounter counter;
  EXPECT_EQ(counter.Count(cnf), BigUint(41));
}

TEST(ModelCounterTest, WmcMatchesBruteForce) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Cnf cnf = RandomCnf(9, 20, 3, seed + 100);
    WeightMap w(9);
    Rng rng(seed);
    for (Var v = 0; v < 9; ++v) {
      double p = rng.Uniform();
      w.Set(Pos(v), p);
      w.Set(Neg(v), 1.0 - p);
    }
    double brute = 0.0;
    for (int bits = 0; bits < (1 << 9); ++bits) {
      Assignment a(9);
      for (Var v = 0; v < 9; ++v) a[v] = (bits >> v) & 1;
      if (!cnf.Evaluate(a)) continue;
      double term = 1.0;
      for (Var v = 0; v < 9; ++v) term *= w[Lit(v, a[v])];
      brute += term;
    }
    ModelCounter counter;
    EXPECT_NEAR(counter.Wmc(cnf, w), brute, 1e-10) << "seed " << seed;
  }
}

TEST(ModelCounterTest, WmcWithUnitWeightsEqualsCount) {
  Cnf cnf = RandomCnf(10, 25, 3, 555);
  ModelCounter counter;
  WeightMap w(10);
  EXPECT_NEAR(counter.Wmc(cnf, w), counter.Count(cnf).ToDouble(), 1e-6);
}

TEST(ModelCounterTest, WmcSurvivesDeepUnderflow) {
  // Regression for the log-space rework (ISSUE 4 headline bug): 2000
  // variables. 1000 unit clauses of weight 1e-3 drive the running product
  // to ~1e-3000 — thousands of orders below DBL_MIN — before 500 two-var
  // components (value 3e6 each) bring the final count back to
  // 3^500 ~ 3.6e238, comfortably representable. The historical
  // plain-double accumulator flushed the intermediate to 0.0 and returned
  // an exact, silent 0.0.
  constexpr size_t kUnits = 1000;
  constexpr size_t kComps = 500;
  Cnf cnf(kUnits + 2 * kComps);
  WeightMap w(kUnits + 2 * kComps);
  for (Var v = 0; v < kUnits; ++v) {
    cnf.AddClauseDimacs({static_cast<int>(v) + 1});
    w.Set(Pos(v), 1e-3);
  }
  for (size_t i = 0; i < kComps; ++i) {
    const Var a = static_cast<Var>(kUnits + 2 * i);
    const Var b = a + 1;
    cnf.AddClause({Pos(a), Pos(b)});
    for (Var v : {a, b}) {
      w.Set(Pos(v), 1e3);
      w.Set(Neg(v), 1e3);
    }
  }
  // What the naive accumulator saw: the unit-chain product alone is not
  // representable.
  double naive = 1.0;
  for (size_t i = 0; i < kUnits; ++i) naive *= 1e-3;
  ASSERT_EQ(naive, 0.0);

  Observability::Global().Reset();
  ModelCounter counter;
  const double wmc = counter.Wmc(cnf, w);
  // Per component (a v b): 1e3*1e3 * 3 satisfying assignments = 3e6, and
  // (1e-3)^1000 * (3e6)^500 = 3^500 exactly.
  const double expected = std::pow(3.0, 500.0);
  EXPECT_GT(wmc, 0.0);
  EXPECT_NEAR(wmc, expected, expected * 1e-9);
  EXPECT_GE(counter.stats().underflow_rescues, 1u);
#if TBC_OBSERVE_ON
  // The rescue is also surfaced through the observability registry.
  EXPECT_GE(Observability::Global().CounterValue("counter.wmc.rescues"), 1u);
#endif
}

TEST(ModelCounterTest, WmcUnrepresentableResultSaturates) {
  // 200 free variables each contributing (0.01 + 0.01): the true WMC is
  // 0.02^200 ~ 1.6e-340, below even the subnormal range. The public double
  // API can only saturate to 0.0 — but it must count the rescue so callers
  // can tell "saturated" from "genuinely zero".
  constexpr size_t kVars = 200;
  Cnf cnf(kVars);
  WeightMap w(kVars);
  for (Var v = 0; v < kVars; ++v) {
    w.Set(Pos(v), 0.01);
    w.Set(Neg(v), 0.01);
  }
  ModelCounter counter;
  EXPECT_EQ(counter.Wmc(cnf, w), 0.0);
  EXPECT_GE(counter.stats().underflow_rescues, 1u);
}

TEST(SubproblemTest, CacheKeyPinnedEncoding) {
  using compiler_internal::CacheKey;
  using compiler_internal::Clauses;
  // Pins the length-prefixed byte layout: uint32 literal count, then the
  // literal codes, per clause. Changing the encoding silently invalidates
  // nothing (the cache is per-run) but must be a conscious decision — it
  // is the injectivity proof the component cache rests on.
  const Clauses clauses = {{Pos(0), Neg(1)}, {Pos(2)}};
  std::string expected;
  const auto append_u32 = [&expected](uint32_t v) {
    expected.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_u32(2);
  append_u32(Pos(0).code());
  append_u32(Neg(1).code());
  append_u32(1);
  append_u32(Pos(2).code());
  EXPECT_EQ(CacheKey(clauses), expected);
  EXPECT_EQ(CacheKey(clauses).size(), 5 * sizeof(uint32_t));
  EXPECT_EQ(CacheKey({}), std::string());
}

TEST(SubproblemTest, CacheKeyIsInjectiveOnSentinelLiteral) {
  using compiler_internal::CacheKey;
  using compiler_internal::Clauses;
  // The old encoding terminated each clause with 0xFFFFFFFF — which is
  // also the literal code of Neg(2^31 - 1), reachable through the public
  // Lit constructor. Under that scheme the two clause sets below
  // serialized to identical bytes (A S S B S), so the component cache
  // could serve one's count for the other. Length prefixes keep every
  // distinct clause set distinct.
  const Lit a = Pos(0);
  const Lit b = Pos(1);
  const Lit s = Neg(0x7FFFFFFFu);
  ASSERT_EQ(s.code(), 0xFFFFFFFFu);
  const Clauses lhs = {{a, s}, {b}};
  const Clauses rhs = {{a}, {s, b}};
  // Demonstrate the historical collision with the old sentinel scheme.
  const auto old_key = [](const Clauses& cs) {
    std::string key;
    for (const auto& c : cs) {
      for (const Lit l : c) {
        const uint32_t code = l.code();
        key.append(reinterpret_cast<const char*>(&code), sizeof(code));
      }
      const uint32_t sep = 0xFFFFFFFFu;
      key.append(reinterpret_cast<const char*>(&sep), sizeof(sep));
    }
    return key;
  };
  EXPECT_EQ(old_key(lhs), old_key(rhs));  // the bug
  EXPECT_NE(CacheKey(lhs), CacheKey(rhs));  // the fix
}

TEST(ModelCounterTest, CounterAgreesWithCompilerTrace) {
  // The paper's point: a model counter's trace is a d-DNNF; both paths
  // must agree on every instance.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Cnf cnf = RandomCnf(13, 36, 3, seed + 2000);
    ModelCounter counter;
    NnfManager m;
    DdnnfCompiler compiler;
    NnfId root = compiler.Compile(cnf, m);
    EXPECT_EQ(counter.Count(cnf), ModelCount(m, root, 13)) << "seed " << seed;
  }
}

// Runs `fn` on a thread with a 256 KiB stack: a search that recursed once
// per decision level would overflow it a few thousand levels down.
void RunOnSmallStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  const auto trampoline = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

struct DeepResults {
  BigUint counted;
  double wmc = 0.0;
  BigUint compiled;
  BigUint traced;  // stays zero when trace emission is compiled out
  size_t trace_comps = 0;
  uint64_t decisions = 0;
};

// Count, WMC, Compile, and Compile with a trace attached, all on a small
// stack.
DeepResults SolveOnSmallStack(const Cnf& cnf, const WeightMap& weights) {
  DeepResults r;
  RunOnSmallStack([&] {
    ModelCounter counter;
    r.counted = counter.Count(cnf);
    r.wmc = counter.Wmc(cnf, weights);
    DdnnfCompiler compiler;
    NnfManager m;
    r.compiled = ModelCount(m, compiler.Compile(cnf, m), cnf.num_vars());
    r.decisions = compiler.stats().decisions;
#if TBC_CERTIFY_TRACE_ON
    DdnnfTrace trace;
    compiler.set_trace(&trace);
    NnfManager traced;
    r.traced = ModelCount(traced, compiler.Compile(cnf, traced), cnf.num_vars());
    r.trace_comps = trace.comps.size();
#endif
  });
  return r;
}

TEST(DeepSearchTest, WideClauseAndLongChainRunOnASmallStack) {
  // Both inputs drive the search 2000 decisions deep.
  constexpr Var kN = 2000;
  Cnf clause(kN);
  Clause wide;
  for (Var v = 0; v < kN; ++v) wide.push_back(Pos(v));
  clause.AddClause(wide);
  WeightMap halves(kN);
  for (Var v = 0; v < kN; ++v) {
    halves.Set(Pos(v), 0.5);
    halves.Set(Neg(v), 0.5);
  }
  const BigUint clause_models = BigUint::PowerOfTwo(kN) - BigUint(1);
  DeepResults r = SolveOnSmallStack(clause, halves);
  EXPECT_EQ(r.counted, clause_models);
  EXPECT_NEAR(r.wmc, 1.0, 1e-12);  // 1 - 2^-2000
  EXPECT_EQ(r.compiled, clause_models);
#if TBC_CERTIFY_TRACE_ON
  EXPECT_EQ(r.traced, clause_models);
  EXPECT_EQ(r.trace_comps, r.decisions);  // no cache hits on this input
#endif

  Cnf chain(kN);  // x_i -> x_{i+1}
  for (Var v = 0; v + 1 < kN; ++v) chain.AddClause({Neg(v), Pos(v + 1)});
  WeightMap ones(kN);
  for (Var v = 0; v < kN; ++v) {
    ones.Set(Pos(v), 1.0);
    ones.Set(Neg(v), 1.0);
  }
  r = SolveOnSmallStack(chain, ones);
  EXPECT_EQ(r.counted, BigUint(kN + 1));
  EXPECT_EQ(r.wmc, kN + 1.0);
  EXPECT_EQ(r.compiled, BigUint(kN + 1));
#if TBC_CERTIFY_TRACE_ON
  EXPECT_EQ(r.traced, BigUint(kN + 1));
  EXPECT_EQ(r.trace_comps, r.decisions);
#endif
}

}  // namespace
}  // namespace tbc
