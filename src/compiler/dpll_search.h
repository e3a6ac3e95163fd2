#ifndef TBC_COMPILER_DPLL_SEARCH_H_
#define TBC_COMPILER_DPLL_SEARCH_H_

#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/flat_table.h"
#include "base/guard.h"
#include "base/observability.h"
#include "base/result.h"
#include "compiler/subproblem.h"

namespace tbc::compiler_internal {

/// Observability counter names a sink reports its search under
/// (`components_split` may be null: that sink does not publish splits).
struct SearchCounterNames {
  const char* decisions;
  const char* cache_hits;
  const char* cache_misses;
  const char* components_split;
};

struct SearchStats {
  uint64_t decisions = 0;
  uint64_t cache_hits = 0;
  uint64_t components_split = 0;
};

/// Exhaustive component-caching DPLL on an explicit heap stack — the one
/// search behind ModelCounter (count, WMC) and DdnnfCompiler (the search
/// trace as a Decision-DNNF [Huang & Darwiche 2007]). Search depth never
/// touches the C++ stack, so a 20 000-literal clause is as safe as a
/// 20-literal one; memory is O(depth × clause-set size).
///
/// What the search computes is the Sink's business:
///   Value   a component's result (cached by the component's clauses);
///   Branch  the running product of one propagated clause set.
///   void Open(Branch&, const Clauses& scope, Var decision,
///             const std::vector<Lit>& implied, const Clauses& remaining)
///       BCP succeeded on `scope` conditioned on `decision` (the root has
///       decision == kInvalidVar and an empty scope standing for every
///       variable); scope variables other than `decision` that are absent
///       from `implied` and `remaining` are free.
///   void Conflict(Branch&)                BCP refuted the clause set.
///   void Multiply(Branch&, const Value&)  one component, in split order.
///   void Close(Branch&)                   all components multiplied.
///   Value Decide(Var, Branch& hi, Branch& lo)   a finished decision.
///   static constexpr SearchCounterNames kCounters;
template <typename Sink>
class DpllSearch {
 public:
  using Value = typename Sink::Value;
  using Branch = typename Sink::Branch;

  DpllSearch(Sink& sink, Guard& guard, bool use_components = true,
             bool use_cache = true)
      : sink_(sink),
        guard_(guard),
        use_components_(use_components),
        use_cache_(use_cache) {}

  /// Runs the search on `clauses` (each clause sorted, see SortEachClause)
  /// and returns the root Branch, closed.
  Result<Branch> Run(Clauses clauses) {
    stack_.clear();
    stack_.emplace_back();
    Open(stack_.back(), std::move(clauses));
    while (true) {
      Frame& top = stack_.back();
      if (top.next < top.comps.size()) {
        Clauses comp = std::move(top.comps[top.next++]);
        Canonicalize(comp);
        if (use_cache_) {
          CacheKeyInto(comp, &probe_);
          if (const Value* hit = cache_.Find(probe_)) {
            ++stats_.cache_hits;
            TBC_COUNT(Sink::kCounters.cache_hits);
            sink_.Multiply(top.cur, *hit);
            continue;
          }
          TBC_COUNT(Sink::kCounters.cache_misses);
        }
        ++stats_.decisions;
        TBC_COUNT(Sink::kCounters.decisions);
        // One decision = one cache entry / decision node: charge both
        // budgets at the head of the exponential search, so a trip
        // surfaces within one decision's work.
        TBC_RETURN_IF_ERROR(guard_.ChargeDecision());
        TBC_RETURN_IF_ERROR(guard_.ChargeNodes(1));
        const Var v = PickBranchVar(comp);
        TBC_DCHECK(v != kInvalidVar);
        stack_.emplace_back();  // invalidates `top`
        Frame& child = stack_.back();
        child.clauses = std::move(comp);
        child.var = v;
        Open(child, ConditionClauses(child.clauses, Pos(v)));
        continue;
      }
      sink_.Close(top.cur);
      if (top.var == kInvalidVar) return std::move(top.cur);  // the root
      if (!top.on_lo) {
        top.hi = std::move(top.cur);
        top.on_lo = true;
        Open(top, ConditionClauses(top.clauses, Neg(top.var)));
        continue;
      }
      const Value value = sink_.Decide(top.var, top.hi, top.cur);
      if (use_cache_) {
        CacheKeyInto(top.clauses, &probe_);
        cache_.Insert(probe_, value);
      }
      stack_.pop_back();
      sink_.Multiply(stack_.back().cur, value);
    }
  }

  const SearchStats& stats() const { return stats_; }

 private:
  /// One pending subproblem: a component being decided (the root frame
  /// holds the input clause set instead and never decides).
  struct Frame {
    Clauses clauses;             // the component, canonical (root: empty)
    Var var = kInvalidVar;       // its decision variable (root: invalid)
    bool on_lo = false;          // hi branch finished, lo in progress
    std::vector<Clauses> comps;  // the current branch's components...
    size_t next = 0;             // ...and the next one to solve
    Branch hi;                   // the finished hi branch
    Branch cur;                  // the branch in progress
  };

  /// Propagates `clauses` (the frame's scope under its current decision)
  /// and queues the resulting components on the frame.
  void Open(Frame& frame, Clauses clauses) {
    frame.comps.clear();
    frame.next = 0;
    Clauses remaining;
    if (Propagate(std::move(clauses), &implied_, &remaining) ==
        BcpOutcome::kConflict) {
      sink_.Conflict(frame.cur);
      return;
    }
    sink_.Open(frame.cur, frame.clauses, frame.var, implied_, remaining);
    if (remaining.empty()) return;
    if (!use_components_) {
      frame.comps.push_back(std::move(remaining));
      return;
    }
    frame.comps = SplitComponents(std::move(remaining));
    if (frame.comps.size() > 1) {
      ++stats_.components_split;
      if constexpr (Sink::kCounters.components_split != nullptr) {
        TBC_COUNT(Sink::kCounters.components_split);
      }
    }
  }

  Sink& sink_;
  Guard& guard_;
  const bool use_components_;
  const bool use_cache_;
  SearchStats stats_;
  std::vector<Frame> stack_;
  FlatMap<std::string, Value> cache_;
  std::string probe_;         // reused cache-key buffer
  std::vector<Lit> implied_;  // reused BCP output
};

}  // namespace tbc::compiler_internal

#endif  // TBC_COMPILER_DPLL_SEARCH_H_
