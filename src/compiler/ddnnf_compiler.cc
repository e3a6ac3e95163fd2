#include "compiler/ddnnf_compiler.h"

#include <utility>
#include <vector>

#include "compiler/dpll_search.h"

#ifdef TBC_VALIDATE
#include "analysis/validate.h"
#endif
#ifdef TBC_CERTIFY
#include "certify/emit.h"
#endif

namespace tbc {

namespace {

using compiler_internal::Clauses;

// Keeps the search trace as a circuit: a clause set becomes the and-gate
// of its implied literals and components, a decision becomes
// (x ∧ hi) ∨ (¬x ∧ lo). With a DdnnfTrace attached it also records the
// derivation the certificate checker replays (certify/checker.h): one
// CertBranch per clause set — the BCP conflict, or the node plus the
// CertComp records it conjoins — and one CertComp per cache miss, which a
// cache hit re-references by index.
class NnfSink {
 public:
  struct Value {
    NnfId node = kInvalidNnf;
    uint32_t comp = 0;  // index into trace->comps (when tracing)
  };
  struct Branch {
    std::vector<NnfId> conjuncts;
    CertBranch cert;  // cert.node doubles as the closed branch's node
  };
  static constexpr compiler_internal::SearchCounterNames kCounters = {
      "ddnnf.decisions", "ddnnf.cache_hits", "ddnnf.cache_misses",
      "ddnnf.components_split"};

  NnfSink(NnfManager& mgr, DdnnfTrace* trace) : mgr_(mgr), trace_(trace) {
    if (tracing()) trace_->Clear();
  }

  void Open(Branch& b, const Clauses&, Var, const std::vector<Lit>& implied,
            const Clauses&) {
    b = Branch();
    for (Lit l : implied) b.conjuncts.push_back(mgr_.Literal(l));
  }
  void Conflict(Branch& b) {
    b = Branch();
    b.cert.conflict = true;
  }
  void Multiply(Branch& b, const Value& v) {
    b.conjuncts.push_back(v.node);
    if (tracing()) b.cert.comps.push_back(v.comp);
  }
  void Close(Branch& b) {
    if (!b.cert.conflict) b.cert.node = mgr_.And(std::move(b.conjuncts));
  }
  Value Decide(Var v, Branch& hi, Branch& lo) {
    const NnfId node = mgr_.Decision(v, Node(hi), Node(lo));
    if (!tracing()) return {node};
    const auto index = static_cast<uint32_t>(trace_->comps.size());
    trace_->comps.push_back(
        CertComp{v, node, std::move(hi.cert), std::move(lo.cert)});
    return {node, index};
  }

  NnfId Root(Branch& root) {
    const NnfId node = Node(root);
    if (tracing()) trace_->top = std::move(root.cert);
    return node;
  }

 private:
  // With trace emission compiled out, every recording site folds away.
  bool tracing() const { return TBC_CERTIFY_TRACE_ON && trace_ != nullptr; }
  // A refuted branch keeps cert.node unset, as the trace format expects.
  NnfId Node(const Branch& b) const {
    return b.cert.conflict ? mgr_.False() : b.cert.node;
  }

  NnfManager& mgr_;
  DdnnfTrace* const trace_;
};

}  // namespace

NnfId DdnnfCompiler::Compile(const Cnf& cnf, NnfManager& mgr) {
  // The unlimited guard never trips, so the bounded path cannot refuse.
  return CompileBounded(cnf, mgr, Guard::Unlimited()).value();
}

Result<NnfId> DdnnfCompiler::CompileBounded(const Cnf& cnf, NnfManager& mgr,
                                            Guard& guard) {
  TBC_SPAN("ddnnf.compile");
  stats_ = DdnnfStats();
  TBC_RETURN_IF_ERROR(guard.Check());
  Clauses clauses(cnf.clauses().begin(), cnf.clauses().end());
  compiler_internal::SortEachClause(clauses);  // invariant for Canonicalize
#ifdef TBC_CERTIFY
  // Certify-every-compile mode: record a trace even when the caller did not
  // attach one, so the checker replays the search instead of re-solving.
  DdnnfTrace certify_trace;
  DdnnfTrace* trace = trace_ != nullptr ? trace_ : &certify_trace;
#else
  DdnnfTrace* trace = trace_;
#endif
  NnfSink sink(mgr, trace);
  compiler_internal::DpllSearch<NnfSink> search(
      sink, guard, options_.use_components, options_.use_cache);
  auto branch = search.Run(std::move(clauses));
  stats_.decisions = search.stats().decisions;
  stats_.cache_hits = search.stats().cache_hits;
  stats_.components_split = search.stats().components_split;
  if (!branch.ok()) return branch.status();
  const NnfId root = sink.Root(*branch);
#ifdef TBC_VALIDATE
  ValidateNnfOrDie(mgr, root, NnfDialect::kDecisionDnnf, cnf.num_vars(),
                   "DdnnfCompiler::CompileBounded");
#endif
#ifdef TBC_CERTIFY
  CertifyDdnnfOrDie(cnf, mgr, root, trace, "DdnnfCompiler::CompileBounded");
#endif
  return root;
}

}  // namespace tbc
