#include "compiler/model_counter.h"

#include <utility>
#include <vector>

#include "base/logspace.h"
#include "base/scratch.h"
#include "compiler/dpll_search.h"

namespace tbc {

namespace {

using compiler_internal::Clauses;
using compiler_internal::CountVars;
using compiler_internal::SearchCounterNames;

constexpr SearchCounterNames kCounterNames = {
    "counter.decisions", "counter.cache_hits", "counter.cache_misses",
    nullptr};

// Exact counting: a Branch is the model count of its clause set over the
// scope's variables; those fixed by the decision or by BCP contribute
// factor 1, those that vanished entirely are free (factor 2 each).
class CountSink {
 public:
  using Value = BigUint;
  using Branch = BigUint;
  static constexpr SearchCounterNames kCounters = kCounterNames;

  explicit CountSink(size_t num_vars) : num_vars_(num_vars) {}

  void Open(Branch& b, const Clauses& scope, Var decision,
            const std::vector<Lit>& implied, const Clauses& remaining) {
    const size_t scope_vars =
        decision == kInvalidVar ? num_vars_ : CountVars(scope) - 1;
    b = BigUint::PowerOfTwo(static_cast<unsigned>(
        scope_vars - implied.size() - CountVars(remaining)));
  }
  void Conflict(Branch& b) { b = BigUint(0); }
  void Multiply(Branch& b, const Value& v) { b *= v; }
  void Close(Branch&) {}
  Value Decide(Var, Branch& hi, Branch& lo) {
    hi += lo;
    return std::move(hi);
  }

 private:
  const size_t num_vars_;
};

// Weighted variant: free variables contribute W(x) + W(¬x), the decision
// literal its own weight. All accumulation — including the component cache
// — is in ScaledDouble (base/logspace.h): a chain of a few thousand 1e-3
// weights produces intermediates around 1e-6000, which plain double
// flushes to 0.0 and the cache would then serve as a *wrong* 0.0 to every
// isomorphic subproblem. The public API converts back to double only at
// the very end.
class WmcSink {
 public:
  using Value = ScaledDouble;
  using Branch = ScaledDouble;
  static constexpr SearchCounterNames kCounters = kCounterNames;

  WmcSink(const WeightMap& weights, size_t num_vars, uint64_t& rescues)
      : weights_(weights), num_vars_(num_vars), rescues_(rescues) {}

  void Open(Branch& b, const Clauses& scope, Var decision,
            const std::vector<Lit>& implied, const Clauses& remaining) {
    bound_.Clear();
    b = ScaledDouble::One();
    for (Lit l : implied) {
      b *= ScaledDouble::FromDouble(weights_[l]);
      bound_.Set(l.var(), 1);
    }
    if (decision != kInvalidVar) bound_.Set(decision, 1);
    for (const auto& c : remaining) {
      for (Lit l : c) bound_.Set(l.var(), 1);
    }
    const auto free_var = [&](Var v) {
      if (bound_.Has(v)) return;
      bound_.Set(v, 1);
      b *= ScaledDouble::FromDouble(weights_[Pos(v)] + weights_[Neg(v)]);
    };
    if (decision == kInvalidVar) {
      for (Var v = 0; v < num_vars_; ++v) free_var(v);
    } else {
      for (const auto& c : scope) {
        for (Lit l : c) free_var(l.var());
      }
    }
    // Long implied-literal chains are where naive products die first.
    NoteIfRescued(b);
  }
  void Conflict(Branch& b) { b = ScaledDouble::Zero(); }
  void Multiply(Branch& b, const Value& v) { b *= v; }
  void Close(Branch& b) { NoteIfRescued(b); }
  Value Decide(Var v, Branch& hi, Branch& lo) {
    ScaledDouble total = ScaledDouble::FromDouble(weights_[Pos(v)]) * hi;
    total += ScaledDouble::FromDouble(weights_[Neg(v)]) * lo;
    NoteIfRescued(total);
    return total;
  }

 private:
  /// A nonzero value outside the normal double range is exactly what the
  /// pre-log-space accumulator destroyed; count each sighting.
  void NoteIfRescued(const ScaledDouble& v) {
    if (!v.IsZero() && !v.FitsDouble()) {
      ++rescues_;
      TBC_COUNT("counter.wmc.rescues");
    }
  }

  const WeightMap& weights_;
  const size_t num_vars_;
  uint64_t& rescues_;
  EpochMap bound_;  // variables fixed or still constrained in a branch
};

template <typename Sink>
Result<typename Sink::Branch> Search(const Cnf& cnf, Sink& sink, Guard& guard,
                                     ModelCounter::Stats& stats) {
  Clauses clauses(cnf.clauses().begin(), cnf.clauses().end());
  compiler_internal::SortEachClause(clauses);  // invariant for Canonicalize
  compiler_internal::DpllSearch<Sink> search(sink, guard);
  auto result = search.Run(std::move(clauses));
  stats.decisions = search.stats().decisions;
  stats.cache_hits = search.stats().cache_hits;
  return result;
}

}  // namespace

BigUint ModelCounter::Count(const Cnf& cnf) {
  return CountBounded(cnf, Guard::Unlimited()).value();
}

double ModelCounter::Wmc(const Cnf& cnf, const WeightMap& weights) {
  return WmcBounded(cnf, weights, Guard::Unlimited()).value();
}

Result<BigUint> ModelCounter::CountBounded(const Cnf& cnf, Guard& guard) {
  TBC_SPAN("counter.count");
  stats_ = Stats();
  TBC_RETURN_IF_ERROR(guard.Check());
  CountSink sink(cnf.num_vars());
  return Search(cnf, sink, guard, stats_);
}

Result<double> ModelCounter::WmcBounded(const Cnf& cnf, const WeightMap& weights,
                                        Guard& guard) {
  TBC_SPAN("counter.wmc");
  stats_ = Stats();
  TBC_RETURN_IF_ERROR(guard.Check());
  WmcSink sink(weights, cnf.num_vars(), stats_.underflow_rescues);
  // A final value outside the double range was already counted as a
  // rescue when the root branch closed; ToDouble() then saturates
  // (0.0 / inf) as the best the public double API can do.
  TBC_ASSIGN_OR_RETURN(const ScaledDouble w, Search(cnf, sink, guard, stats_));
  return w.ToDouble();
}

}  // namespace tbc
