#ifndef TBC_NNF_PROPERTIES_H_
#define TBC_NNF_PROPERTIES_H_

#include "base/guard.h"
#include "base/result.h"
#include "nnf/nnf.h"

namespace tbc {

/// Checks *decomposability* (paper Fig 6): no two inputs of any and-gate
/// share a variable. Linear in circuit size times varset width.
bool IsDecomposable(NnfManager& mgr, NnfId root);

/// Checks *smoothness*: all inputs of every or-gate mention exactly the
/// same variables.
bool IsSmooth(NnfManager& mgr, NnfId root);

/// Checks *determinism* (paper Fig 7) exhaustively: under every assignment
/// to the first `num_vars` variables, every or-gate has at most one high
/// input. Exponential in num_vars — this is a test oracle (num_vars <= 22).
bool IsDeterministicExhaustive(NnfManager& mgr, NnfId root, size_t num_vars);

/// Checks the *decision* property: every or-gate is a binary multiplexer
/// (x ∧ hi) ∨ (¬x ∧ lo) on some variable x. Decision + decomposability =
/// Decision-DNNF, the language emitted by the top-down compiler.
bool IsDecision(NnfManager& mgr, NnfId root);

/// Returns an equivalent smooth circuit (paper §3): each or-gate input is
/// conjoined with (x ∨ ¬x) gates for its missing variables. If
/// `num_vars > 0`, the root is additionally smoothed over variables
/// 0..num_vars-1. Preserves decomposability and determinism.
NnfId Smooth(NnfManager& mgr, NnfId root, size_t num_vars = 0);

/// Resource-governed Smooth: polls the deadline per circuit node and
/// charges each gate it rebuilds plus each (x ∨ ¬x) input it attaches
/// against max_nodes (a wide clause smooths to O(n^2) edges). On a trip,
/// returns the typed refusal; `mgr` keeps any gates already created.
Result<NnfId> SmoothBounded(NnfManager& mgr, NnfId root, size_t num_vars,
                            Guard& guard);

}  // namespace tbc

#endif  // TBC_NNF_PROPERTIES_H_
