#ifndef TBC_COMPILER_SUBPROBLEM_H_
#define TBC_COMPILER_SUBPROBLEM_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "base/check.h"
#include "base/scratch.h"
#include "logic/lit.h"

namespace tbc::compiler_internal {

/// A subproblem of exhaustive DPLL: a set of reduced clauses (no satisfied
/// clauses, no false literals). These are the per-node steps of the one
/// search in compiler/dpll_search.h.
using Clauses = std::vector<std::vector<Lit>>;

/// Establishes the sorted-clause invariant on fresh input. Every transform
/// below (Propagate, ConditionClauses, SplitComponents) only deletes
/// literals or moves whole clauses, so per-clause sortedness is preserved
/// down the entire DPLL search and never needs re-establishing.
inline void SortEachClause(Clauses& clauses) {
  for (auto& c : clauses) std::sort(c.begin(), c.end());
}

/// Canonicalizes a clause set whose clauses are each already sorted: orders
/// the clause list and drops duplicates. (Re-sorting every tiny clause at
/// every DPLL node dominated the compile profile; the invariant makes it a
/// one-time cost.)
inline void Canonicalize(Clauses& clauses) {
#ifndef NDEBUG
  for (const auto& c : clauses) {
    TBC_DCHECK(std::is_sorted(c.begin(), c.end()));
  }
#endif
  std::sort(clauses.begin(), clauses.end());
  clauses.erase(std::unique(clauses.begin(), clauses.end()), clauses.end());
}

/// Serializes canonical clauses into `key` (reused buffer: cache probes on
/// the hot DPLL path allocate nothing on a hit).
///
/// The encoding is length-prefixed — uint32 literal count, then the
/// literal codes — which is injective for every clause set: a decoder
/// always knows where each clause ends. The previous scheme terminated
/// clauses with the sentinel 0xFFFFFFFF, which is itself a valid Lit code
/// (the negative literal of var 2^31 - 1), so clause sets containing that
/// literal could collide and the component cache would serve a wrong
/// count. Pinned by CacheKeyIsInjectiveOnSentinelLiteral in
/// compiler_test.
inline void CacheKeyInto(const Clauses& clauses, std::string* key) {
  // A Lit is exactly its uint32 code, so each clause is one bulk copy.
  static_assert(sizeof(Lit) == sizeof(uint32_t) &&
                std::is_trivially_copyable_v<Lit>);
  size_t bytes = 0;
  for (const auto& c : clauses) bytes += (1 + c.size()) * sizeof(uint32_t);
  key->resize(bytes);
  char* out = key->data();
  for (const auto& c : clauses) {
    const uint32_t len = static_cast<uint32_t>(c.size());
    std::memcpy(out, &len, sizeof(len));
    out += sizeof(len);
    if (c.empty()) continue;  // data() may be null, which memcpy forbids
    std::memcpy(out, c.data(), c.size() * sizeof(Lit));
    out += c.size() * sizeof(Lit);
  }
}

inline std::string CacheKey(const Clauses& clauses) {
  std::string key;
  CacheKeyInto(clauses, &key);
  return key;
}

enum class BcpOutcome { kOk, kConflict };

/// Exhaustive unit propagation: consumes unit clauses into `implied`,
/// reduces the rest into `remaining`.
inline BcpOutcome Propagate(Clauses clauses, std::vector<Lit>* implied,
                            Clauses* remaining) {
  implied->clear();
  // Propagation runs once per DPLL node; the epoch-stamped scratch turns
  // the per-call assignment map into two array probes. Scratch use is
  // strictly within this call, so reuse across search nodes is safe.
  static thread_local EpochMap value;
  value.Clear();
  bool changed = true;
  while (changed) {
    changed = false;
    Clauses next;
    next.reserve(clauses.size());
    for (auto& c : clauses) {
      // Scan first: clauses untouched by the current assignment (the bulk
      // of every pass) move through without rebuilding.
      bool satisfied = false;
      bool shrinks = false;
      for (Lit l : c) {
        if (!value.Has(l.var())) continue;
        if ((value.Get(l.var()) != 0) == l.positive()) {
          satisfied = true;
          break;
        }
        shrinks = true;
      }
      if (satisfied) continue;
      std::vector<Lit> reduced;
      if (shrinks) {
        reduced.reserve(c.size());
        for (Lit l : c) {
          if (!value.Has(l.var())) reduced.push_back(l);
        }
      } else {
        reduced = std::move(c);
      }
      if (reduced.empty()) return BcpOutcome::kConflict;
      if (reduced.size() == 1) {
        const Lit u = reduced[0];
        if (!value.Has(u.var())) {
          value.Set(u.var(), u.positive() ? 1 : 0);
          implied->push_back(u);
          changed = true;
        }
        continue;
      }
      next.push_back(std::move(reduced));
    }
    clauses = std::move(next);
  }
  *remaining = std::move(clauses);
  return BcpOutcome::kOk;
}

/// Splits clauses into variable-connected components (union-find on vars).
/// Takes the clause list by value and moves each clause into its component;
/// the single-component case (the common one) moves the whole list through.
inline std::vector<Clauses> SplitComponents(Clauses clauses) {
  static thread_local EpochMap parent;      // var -> union-find parent var
  static thread_local EpochMap comp_index;  // root var -> component index
  parent.Clear();
  comp_index.Clear();
  auto find = [](Var v) -> Var {
    if (!parent.Has(v)) {
      parent.Set(v, v);
      return v;
    }
    Var root = v;
    while (parent.Get(root) != root) root = parent.Get(root);
    while (parent.Get(v) != root) {  // path compression
      const Var next = parent.Get(v);
      parent.Set(v, root);
      v = next;
    }
    return root;
  };
  for (const auto& c : clauses) {
    for (size_t i = 1; i < c.size(); ++i) {
      const Var ra = find(c[0].var());
      const Var rb = find(c[i].var());
      if (ra != rb) parent.Set(ra, rb);
    }
  }
  size_t num_roots = 0;
  for (const auto& c : clauses) {
    const Var root = find(c[0].var());
    if (!comp_index.Has(root)) {
      comp_index.Set(root, static_cast<uint32_t>(num_roots++));
    }
  }
  std::vector<Clauses> components;
  if (num_roots <= 1) {
    if (!clauses.empty()) components.push_back(std::move(clauses));
    return components;
  }
  components.resize(num_roots);
  for (auto& c : clauses) {
    components[comp_index.Get(find(c[0].var()))].push_back(std::move(c));
  }
  return components;
}

/// Most frequently occurring variable (ties broken by smaller index so the
/// search is deterministic).
inline Var PickBranchVar(const Clauses& clauses) {
  static thread_local EpochMap occurrences;
  occurrences.Clear();
  for (const auto& c : clauses) {
    for (Lit l : c) {
      const Var v = l.var();
      occurrences.Set(v, occurrences.Has(v) ? occurrences.Get(v) + 1 : 1);
    }
  }
  Var best = kInvalidVar;
  size_t best_count = 0;
  for (const Var v : occurrences.touched()) {
    const size_t count = occurrences.Get(v);
    if (count > best_count || (count == best_count && v < best)) {
      best = v;
      best_count = count;
    }
  }
  return best;
}

/// Conditions clauses on a literal (no propagation). Scans each clause
/// first so satisfied clauses allocate nothing and untouched clauses (the
/// bulk) copy wholesale instead of literal-by-literal.
inline Clauses ConditionClauses(const Clauses& clauses, Lit l) {
  Clauses out;
  out.reserve(clauses.size());
  for (const auto& c : clauses) {
    bool satisfied = false;
    bool shrinks = false;
    for (Lit x : c) {
      if (x == l) {
        satisfied = true;
        break;
      }
      if (x == ~l) shrinks = true;
    }
    if (satisfied) continue;
    if (!shrinks) {
      out.push_back(c);
      continue;
    }
    std::vector<Lit> reduced;
    reduced.reserve(c.size() - 1);
    for (Lit x : c) {
      if (x != ~l) reduced.push_back(x);
    }
    out.push_back(std::move(reduced));
  }
  return out;
}

/// Number of distinct variables appearing in the clauses.
inline size_t CountVars(const Clauses& clauses) {
  static thread_local EpochMap vars;
  vars.Clear();
  for (const auto& c : clauses) {
    for (Lit l : c) vars.Set(l.var(), 1);
  }
  return vars.touched().size();
}

}  // namespace tbc::compiler_internal

#endif  // TBC_COMPILER_SUBPROBLEM_H_
