#include "nnf/queries.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "nnf/properties.h"

namespace tbc {

namespace {

using Kind = NnfManager::Kind;

// Indices per chunk claimed off the pool; also the serial poll period.
constexpr size_t kGrain = 64;

// Runs body(i) for i in [begin, end): over the pool's lanes when one is
// given and the range is worth splitting, inline otherwise. Either way the
// guard is polled about once per kGrain indices.
template <typename Body>
Status ForRange(ThreadPool* pool, Guard& guard, size_t begin, size_t end,
                const Body& body) {
  if (pool != nullptr && pool->num_threads() > 1 && end - begin > kGrain) {
    return pool->ParallelFor(begin, end, kGrain, body, &guard);
  }
  for (size_t i = begin; i < end; ++i) {
    if ((i - begin) % kGrain == 0) TBC_RETURN_IF_ERROR(guard.Poll());
    body(i);
  }
  return Status::Ok();
}

// Every query below is one semiring over the same upward pass. An op
// supplies:
//   Value                        the per-node value;
//   False(), True(), Literal(l)  leaf values; False() is also the or-gate
//                                identity and True() the and-gate identity;
//   Times(acc, x)                and-gate accumulation;
//   Plus(i, acc, x)              or-gate accumulation at schedule rank i;
//   kGaps                        whether or-inputs need gap factors, and if
//                                so Gap(x, k, missing): the value of an
//                                or-input x that lacks k of its gate's
//                                variables, those listed by `missing`.
// A gap factor is what explicit smoothing would contribute, applied as
// x * Π(per-variable factor), the product taken in ascending variable
// order.

// Exact model count: 2^k per gap.
struct CountOp {
  using Value = BigUint;
  static constexpr bool kGaps = true;
  Value False() const { return BigUint(0); }
  Value True() const { return BigUint(1); }
  Value Literal(Lit) const { return BigUint(1); }
  void Times(Value& acc, const Value& x) const { acc *= x; }
  void Plus(size_t, Value& acc, const Value& x) const { acc += x; }
  Value Gap(const Value& x, uint32_t k, const MissingVars&) const {
    return x * BigUint::PowerOfTwo(k);
  }
};

// Weighted model count (sum-product): W(x) + W(¬x) per missing variable.
struct SumProductOp {
  using Value = ScaledDouble;
  static constexpr bool kGaps = true;
  const WeightMap& w;
  Value False() const { return ScaledDouble::Zero(); }
  Value True() const { return ScaledDouble::One(); }
  Value Literal(Lit l) const { return ScaledDouble::FromDouble(w[l]); }
  void Times(Value& acc, const Value& x) const { acc *= x; }
  void Plus(size_t, Value& acc, const Value& x) const { acc += x; }
  Value Gap(const Value& x, uint32_t, const MissingVars& missing) const {
    ScaledDouble f = ScaledDouble::One();
    missing.ForEach(
        [&](Var v) { f *= ScaledDouble::FromDouble(w[Pos(v)] + w[Neg(v)]); });
    return x * f;
  }
};

// Most probable explanation (max-product): max(W(x), W(¬x)) per missing
// variable. Weights are nonnegative, so a negative value marks a
// subcircuit with no model.
struct MaxProductOp {
  using Value = ScaledDouble;
  static constexpr bool kGaps = true;
  const WeightMap& w;
  static bool Unsat(const Value& x) { return x.mantissa() < 0.0; }
  Value False() const { return ScaledDouble::FromDouble(-1.0); }
  Value True() const { return ScaledDouble::One(); }
  Value Literal(Lit l) const { return ScaledDouble::FromDouble(w[l]); }
  void Times(Value& acc, const Value& x) const {
    if (Unsat(acc)) return;
    if (Unsat(x)) {
      acc = x;
      return;
    }
    acc *= x;
  }
  void Plus(size_t, Value& acc, const Value& x) const {
    if (!Unsat(x) && acc < x) acc = x;  // ties keep the earlier input
  }
  Value Gap(const Value& x, uint32_t, const MissingVars& missing) const {
    if (Unsat(x)) return x;
    ScaledDouble f = ScaledDouble::One();
    missing.ForEach([&](Var v) {
      f *= ScaledDouble::FromDouble(std::max(w[Pos(v)], w[Neg(v)]));
    });
    return x * f;
  }
};

// Satisfiability: ⊥ does not reach the root. Needs decomposability only.
struct SatOp {
  using Value = uint8_t;
  static constexpr bool kGaps = false;
  Value False() const { return 0; }
  Value True() const { return 1; }
  Value Literal(Lit) const { return 1; }
  void Times(Value& acc, Value x) const { acc &= x; }
  void Plus(size_t, Value& acc, Value x) const { acc |= x; }
};

// Minimum number of positive literals (min-plus). A missing variable can
// always be set false, so gaps cost nothing.
struct MinCardinalityOp {
  using Value = size_t;
  static constexpr bool kGaps = false;
  static constexpr size_t kInf = std::numeric_limits<size_t>::max();
  Value False() const { return kInf; }
  Value True() const { return 0; }
  Value Literal(Lit l) const { return l.positive() ? 1 : 0; }
  void Times(Value& acc, Value x) const {
    acc = acc == kInf || x == kInf ? kInf : acc + x;
  }
  void Plus(size_t, Value& acc, Value x) const { acc = std::min(acc, x); }
};

// Constrained max-sum: an or-gate touching a max variable maximizes, every
// other or-gate sums. The circuit is smooth, so there are no gaps.
struct MaxSumOp {
  using Value = ScaledDouble;
  static constexpr bool kGaps = false;
  const WeightMap& w;
  const std::vector<uint8_t>& max_gate;  // per schedule rank
  Value False() const { return ScaledDouble::Zero(); }
  Value True() const { return ScaledDouble::One(); }
  Value Literal(Lit l) const { return ScaledDouble::FromDouble(w[l]); }
  void Times(Value& acc, const Value& x) const { acc *= x; }
  void Plus(size_t i, Value& acc, const Value& x) const {
    if (!max_gate[i]) {
      acc += x;
    } else if (acc < x) {
      acc = x;
    }
  }
};

// The upward pass (DESIGN.md "One evaluator"): every node of the schedule,
// level by level, into value[rank]. For ops with gaps, `num_vars` holds
// |VarSet| per rank and an or-edge whose input has as many variables as
// its gate skips the varsets entirely; the others read them, so they must
// be warm (WarmPlan). Pass bodies write only their own slot and iterate
// children in a fixed order, so the result is bit-identical at every
// thread count.
template <typename Op>
Result<std::vector<typename Op::Value>> Upward(
    NnfManager& mgr, const LevelSchedule& s,
    const std::vector<uint32_t>* num_vars, const Op& op, Guard& guard,
    ThreadPool* pool) {
  using Value = typename Op::Value;
  std::vector<Value> value(s.order.size());
  for (size_t l = 0; l < s.num_levels(); ++l) {
    TBC_RETURN_IF_ERROR(ForRange(
        pool, guard, s.level_begin[l], s.level_begin[l + 1], [&](size_t i) {
          const NnfId n = s.order[i];
          switch (mgr.kind(n)) {
            case Kind::kFalse:
              value[i] = op.False();
              break;
            case Kind::kTrue:
              value[i] = op.True();
              break;
            case Kind::kLiteral:
              value[i] = op.Literal(mgr.lit(n));
              break;
            case Kind::kAnd: {
              Value acc = op.True();
              for (NnfId c : mgr.children(n)) op.Times(acc, value[s.rank[c]]);
              value[i] = std::move(acc);
              break;
            }
            case Kind::kOr: {
              Value acc = op.False();
              for (NnfId c : mgr.children(n)) {
                const uint32_t rc = s.rank[c];
                if constexpr (Op::kGaps) {
                  const uint32_t k = (*num_vars)[i] - (*num_vars)[rc];
                  if (k != 0) {
                    op.Plus(i, acc,
                            op.Gap(value[rc], k,
                                   MissingVars{mgr.VarSet(n), mgr.VarSet(c)}));
                    continue;
                  }
                }
                op.Plus(i, acc, value[rc]);
              }
              value[i] = std::move(acc);
              break;
            }
          }
        }));
  }
  return value;
}

// The root's cached plan, with the subcircuit's varsets warm so gap walks
// in pass bodies only read them (VarSet recomputes after the manager's
// variable range has grown, and is a lookup otherwise).
const NnfManager::EvalPlan& WarmPlan(NnfManager& mgr, NnfId root) {
  mgr.VarSet(root);
  return mgr.EvalPlanCached(root);
}

// Root value of a gap-free op over a transient schedule, which keeps
// roots such as EntailsClause's conditioned circuit out of the plan cache.
template <typename Op>
typename Op::Value EvalTransient(NnfManager& mgr, NnfId root, const Op& op) {
  const LevelSchedule s = mgr.Schedule(root);
  return Upward(mgr, s, nullptr, op, Guard::Unlimited(), nullptr)
      .value()[s.rank[root]];
}

// The serial top-down descent shared by the MPE and max-sum tracebacks
// and the sampler: from `root`, every input of an and-gate and the one input
// choose(n) picks of an or-gate n, whose variables missing from that input
// go to on_free(v); every literal reached goes to on_literal(l).
template <typename Choose, typename OnLiteral, typename OnFree>
void Descend(NnfManager& mgr, NnfId root, const Choose& choose,
             const OnLiteral& on_literal, const OnFree& on_free) {
  std::vector<NnfId> stack = {root};
  while (!stack.empty()) {
    const NnfId n = stack.back();
    stack.pop_back();
    switch (mgr.kind(n)) {
      case Kind::kFalse:
      case Kind::kTrue:
        break;
      case Kind::kLiteral:
        on_literal(mgr.lit(n));
        break;
      case Kind::kAnd:
        for (NnfId c : mgr.children(n)) stack.push_back(c);
        break;
      case Kind::kOr: {
        const NnfId c = choose(n);
        MissingVars{mgr.VarSet(n), mgr.VarSet(c)}.ForEach(on_free);
        stack.push_back(c);
        break;
      }
    }
  }
}

}  // namespace

bool IsSatDnnf(NnfManager& mgr, NnfId root) {
  return EvalTransient(mgr, root, SatOp{}) == 1;
}

size_t MinCardinality(NnfManager& mgr, NnfId root) {
  return EvalTransient(mgr, root, MinCardinalityOp{});
}

Result<BigUint> ModelCountBounded(NnfManager& mgr, NnfId root, size_t num_vars,
                                  Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  // The store is append-only, so a root's count over a fixed universe never
  // changes; repeated counts on the same root hit the manager's cache.
  if (const BigUint* hit = mgr.FindModelCount(root, num_vars)) return *hit;
  const NnfManager::EvalPlan& plan = WarmPlan(mgr, root);
  TBC_ASSIGN_OR_RETURN(
      const std::vector<BigUint> count,
      Upward(mgr, plan.schedule, &plan.num_vars, CountOp{}, guard, pool));
  const uint32_t r = plan.schedule.rank[root];
  TBC_CHECK_MSG(plan.num_vars[r] <= num_vars,
                "num_vars smaller than circuit variables");
  BigUint result = count[r] * BigUint::PowerOfTwo(static_cast<unsigned>(
                                  num_vars - plan.num_vars[r]));
  mgr.StoreModelCount(root, num_vars, result);
  return result;
}

BigUint ModelCount(NnfManager& mgr, NnfId root, size_t num_vars) {
  return std::move(
      ModelCountBounded(mgr, root, num_vars, Guard::Unlimited()).value());
}

Result<double> WmcBounded(NnfManager& mgr, NnfId root, const WeightMap& weights,
                          Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const NnfManager::EvalPlan& plan = WarmPlan(mgr, root);
  const SumProductOp op{weights};
  TBC_ASSIGN_OR_RETURN(
      const std::vector<ScaledDouble> value,
      Upward(mgr, plan.schedule, &plan.num_vars, op, guard, pool));
  // Variables outside the circuit contribute (W(x)+W(¬x)) each.
  std::vector<uint64_t> all((weights.num_vars() + 63) / 64, 0);
  for (size_t v = 0; v < weights.num_vars(); ++v) all[v / 64] |= 1ull << (v % 64);
  const MissingVars outside{all, mgr.VarSet(root)};
  return op.Gap(value[plan.schedule.rank[root]], 0, outside).ToDouble();
}

double Wmc(NnfManager& mgr, NnfId root, const WeightMap& weights) {
  return WmcBounded(mgr, root, weights, Guard::Unlimited()).value();
}

Result<std::vector<double>> MarginalWmcBounded(NnfManager& mgr, NnfId root,
                                               const WeightMap& weights,
                                               Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const NnfManager::EvalPlan& plan = WarmPlan(mgr, root);
  const LevelSchedule& s = plan.schedule;
  TBC_ASSIGN_OR_RETURN(
      const std::vector<ScaledDouble> value,
      Upward(mgr, s, &plan.num_vars, SumProductOp{weights}, guard, pool));

  // Downward pass: partial derivatives [Darwiche 2003]. Parents accumulate
  // into shared child slots, so this pass stays serial.
  std::vector<ScaledDouble> deriv(s.order.size());
  deriv[s.rank[root]] = ScaledDouble::One();
  for (size_t i = s.order.size(); i-- > 0;) {
    if (i % kGrain == 0) TBC_RETURN_IF_ERROR(guard.Poll());
    const NnfId n = s.order[i];
    const ScaledDouble dn = deriv[i];
    if (dn.IsZero()) continue;
    if (mgr.kind(n) == Kind::kOr) {
      for (NnfId c : mgr.children(n)) deriv[s.rank[c]] += dn;
    } else if (mgr.kind(n) == Kind::kAnd) {
      // d/dc = dn * Π_{c'≠c} v(c'); handle zero factors explicitly.
      const auto& kids = mgr.children(n);
      size_t zeros = 0;
      ScaledDouble prod_nonzero = ScaledDouble::One();
      for (NnfId c : kids) {
        if (value[s.rank[c]].IsZero()) {
          ++zeros;
        } else {
          prod_nonzero *= value[s.rank[c]];
        }
      }
      if (zeros == 0) {
        for (NnfId c : kids) {
          deriv[s.rank[c]] += dn * prod_nonzero / value[s.rank[c]];
        }
      } else if (zeros == 1) {
        for (NnfId c : kids) {
          if (value[s.rank[c]].IsZero()) deriv[s.rank[c]] += dn * prod_nonzero;
        }
      }
    }
  }

  std::vector<ScaledDouble> marginal(2 * weights.num_vars());
  for (size_t i = 0; i < s.order.size(); ++i) {
    const NnfId n = s.order[i];
    if (mgr.kind(n) == Kind::kLiteral) {
      const Lit l = mgr.lit(n);
      marginal[l.code()] += deriv[i] * ScaledDouble::FromDouble(weights[l]);
    }
  }
  std::vector<double> out;
  out.reserve(marginal.size());
  for (const ScaledDouble& m : marginal) out.push_back(m.ToDouble());
  return out;
}

std::vector<double> MarginalWmc(NnfManager& mgr, NnfId root,
                                const WeightMap& weights) {
  const NnfId smooth = Smooth(mgr, root, weights.num_vars());
  return std::move(
      MarginalWmcBounded(mgr, smooth, weights, Guard::Unlimited()).value());
}

Result<MpeResult> MaxWmcBounded(NnfManager& mgr, NnfId root,
                                const WeightMap& weights, size_t num_vars,
                                Guard& guard, ThreadPool* pool) {
  TBC_RETURN_IF_ERROR(guard.Check());
  const NnfManager::EvalPlan& plan = WarmPlan(mgr, root);
  const LevelSchedule& s = plan.schedule;
  const MaxProductOp op{weights};
  TBC_ASSIGN_OR_RETURN(const std::vector<ScaledDouble> value,
                       Upward(mgr, s, &plan.num_vars, op, guard, pool));
  TBC_CHECK_MSG(!MaxProductOp::Unsat(value[s.rank[root]]),
                "MaxWmc on unsatisfiable circuit");

  MpeResult result;
  result.assignment.assign(num_vars, false);
  std::vector<int8_t> assigned(num_vars, 0);
  auto set_var = [&](Var v, bool val) {
    result.assignment[v] = val;
    assigned[v] = 1;
  };
  auto set_free_max = [&](Var v) {
    set_var(v, weights[Pos(v)] >= weights[Neg(v)]);
  };
  // Traceback: the first best input of each or-gate (ties break on child
  // order, independent of threads).
  auto best_input = [&](NnfId n) {
    NnfId best_child = kInvalidNnf;
    ScaledDouble best = op.False();
    for (NnfId c : mgr.children(n)) {
      const MissingVars missing{mgr.VarSet(n), mgr.VarSet(c)};
      const ScaledDouble v = op.Gap(value[s.rank[c]], 0, missing);
      if (!MaxProductOp::Unsat(v) && best < v) {
        best = v;
        best_child = c;
      }
    }
    TBC_DCHECK(best_child != kInvalidNnf);
    return best_child;
  };
  Descend(
      mgr, root, best_input,
      [&](Lit l) { set_var(l.var(), l.positive()); }, set_free_max);
  // Variables never mentioned along the chosen path.
  for (Var v = 0; v < num_vars; ++v) {
    if (!assigned[v]) set_free_max(v);
  }

  ScaledDouble w = ScaledDouble::One();
  for (Var v = 0; v < num_vars; ++v) {
    w *= ScaledDouble::FromDouble(weights[Lit(v, result.assignment[v])]);
  }
  result.scaled_weight = w;
  result.weight = w.ToDouble();
  return result;
}

MpeResult MaxWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                 size_t num_vars) {
  return std::move(
      MaxWmcBounded(mgr, root, weights, num_vars, Guard::Unlimited()).value());
}

Assignment SampleModelDnnf(NnfManager& mgr, NnfId root, size_t num_vars,
                           Rng& rng) {
  const NnfManager::EvalPlan& plan = WarmPlan(mgr, root);
  const LevelSchedule& s = plan.schedule;
  const std::vector<BigUint> count =
      Upward(mgr, s, &plan.num_vars, CountOp{}, Guard::Unlimited(), nullptr)
          .value();
  TBC_CHECK_MSG(!count[s.rank[root]].IsZero(),
                "cannot sample an unsatisfiable circuit");

  Assignment x(num_vars, false);
  std::vector<int8_t> assigned(num_vars, 0);
  auto set_var = [&](Var v, bool val) {
    x[v] = val;
    assigned[v] = 1;
  };
  auto set_free = [&](Var v) { set_var(v, rng.Flip(0.5)); };
  // Descent: each or-gate picks an input with probability proportional to
  // its gap-adjusted count. Branch probabilities use double ratios of the
  // exact counts; the bias is bounded by double rounding (~1e-16
  // relative).
  auto draw_input = [&](NnfId n) {
    const uint32_t nv = plan.num_vars[s.rank[n]];
    double u = rng.Uniform() * count[s.rank[n]].ToDouble();
    NnfId chosen = kInvalidNnf;
    for (NnfId c : mgr.children(n)) {
      const double w =
          count[s.rank[c]].ToDouble() *
          std::ldexp(1.0, static_cast<int>(nv - plan.num_vars[s.rank[c]]));
      if (u < w || c == mgr.children(n).back()) {
        chosen = c;
        break;
      }
      u -= w;
    }
    // Pick only children with nonzero count (⊥ children have w = 0 and
    // can only be reached via the fallback; skip them).
    if (count[s.rank[chosen]].IsZero()) {
      for (NnfId c : mgr.children(n)) {
        if (!count[s.rank[c]].IsZero()) chosen = c;
      }
    }
    return chosen;
  };
  Descend(
      mgr, root, draw_input, [&](Lit l) { set_var(l.var(), l.positive()); },
      set_free);
  // Variables outside the circuit.
  for (Var v = 0; v < num_vars; ++v) {
    if (!assigned[v]) set_free(v);
  }
  return x;
}

bool EntailsClause(NnfManager& mgr, NnfId root, const Clause& clause) {
  // root ⊨ clause  iff  root ∧ ¬clause is unsatisfiable.
  NnfId conditioned = root;
  for (Lit l : clause) conditioned = mgr.Condition(conditioned, ~l);
  return !IsSatDnnf(mgr, conditioned);
}

NnfId Forget(NnfManager& mgr, NnfId root, const std::vector<Var>& vars) {
  std::vector<uint64_t> forget_set((mgr.num_vars() + 63) / 64, 0);
  for (Var v : vars) forget_set[v / 64] |= 1ull << (v % 64);
  // Dense memo indexed by original node id; And/Or below may append nodes,
  // but only pre-existing ids are ever looked up.
  std::vector<NnfId> memo(mgr.num_nodes(), kInvalidNnf);
  for (NnfId n : mgr.TopologicalOrder(root)) {
    NnfId result = kInvalidNnf;
    switch (mgr.kind(n)) {
      case Kind::kFalse:
      case Kind::kTrue:
        result = n;
        break;
      case Kind::kLiteral: {
        const Var v = mgr.lit(n).var();
        const bool forgotten = (forget_set[v / 64] >> (v % 64)) & 1;
        result = forgotten ? mgr.True() : n;
        break;
      }
      case Kind::kAnd:
      case Kind::kOr: {
        const std::vector<NnfId> kids_src = mgr.children(n).ToVector();
        std::vector<NnfId> kids;
        kids.reserve(kids_src.size());
        for (NnfId c : kids_src) kids.push_back(memo[c]);
        result = mgr.kind(n) == Kind::kAnd ? mgr.And(std::move(kids))
                                                       : mgr.Or(std::move(kids));
        break;
      }
    }
    memo[n] = result;
  }
  return memo[root];
}

MaxSumResult MaxSumWmc(NnfManager& mgr, NnfId root, const WeightMap& weights,
                       const std::vector<Var>& max_vars) {
  mgr.VarSet(root);
  std::vector<uint64_t> max_set((mgr.num_vars() + 63) / 64, 0);
  for (Var v : max_vars) max_set[v / 64] |= 1ull << (v % 64);
  auto touches_max = [&](NnfId n) {
    const std::vector<uint64_t>& vs = mgr.VarSet(n);
    for (size_t w = 0; w < vs.size() && w < max_set.size(); ++w) {
      if ((vs[w] & max_set[w]) != 0) return true;
    }
    return false;
  };

  // A transient schedule: callers smooth a fresh root per query.
  const LevelSchedule s = mgr.Schedule(root);
  std::vector<uint8_t> max_gate(s.order.size(), 0);
  for (size_t i = 0; i < s.order.size(); ++i) {
    max_gate[i] = mgr.kind(s.order[i]) == Kind::kOr && touches_max(s.order[i]);
  }
  const std::vector<ScaledDouble> value =
      Upward(mgr, s, nullptr, MaxSumOp{weights, max_gate}, Guard::Unlimited(),
             nullptr)
          .value();

  // Traceback: descend argmax branches of max-or gates, collecting max-var
  // literals along the chosen paths. The circuit is smooth, so no input
  // misses a variable of its gate.
  MaxSumResult result;
  result.value = value[s.rank[root]].ToDouble();
  std::vector<int8_t> chosen(2 * mgr.num_vars(), 0);
  auto best_input = [&](NnfId n) {
    NnfId best_child = kInvalidNnf;
    ScaledDouble best = ScaledDouble::FromDouble(-1.0);
    for (NnfId c : mgr.children(n)) {
      if (best < value[s.rank[c]]) {
        best = value[s.rank[c]];
        best_child = c;
      }
    }
    TBC_DCHECK(best_child != kInvalidNnf);
    return best_child;
  };
  auto collect = [&](Lit l) {
    const Var v = l.var();
    if (((max_set[v / 64] >> (v % 64)) & 1) != 0 && !chosen[l.code()]) {
      chosen[l.code()] = 1;
      result.max_assignment.push_back(l);
    }
  };
  Descend(mgr, root, best_input, collect, [](Var) {});
  return result;
}

void EnumerateModelsDnnf(NnfManager& mgr, NnfId root, size_t num_vars,
                         const std::function<void(const Assignment&)>& on_model) {
  TBC_CHECK_MSG(num_vars <= 22, "model enumeration oracle limited to 22 vars");
  const std::vector<NnfId> order = mgr.TopologicalOrder(root);
  std::vector<int8_t> value(mgr.num_nodes(), 0);
  Assignment a(num_vars, false);
  const uint64_t total = 1ull << num_vars;
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (size_t v = 0; v < num_vars; ++v) a[v] = (bits >> v) & 1u;
    for (NnfId n : order) {
      switch (mgr.kind(n)) {
        case Kind::kFalse:
          value[n] = 0;
          break;
        case Kind::kTrue:
          value[n] = 1;
          break;
        case Kind::kLiteral:
          value[n] = Eval(mgr.lit(n), a) ? 1 : 0;
          break;
        case Kind::kAnd: {
          int8_t v = 1;
          for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v & value[c]);
          value[n] = v;
          break;
        }
        case Kind::kOr: {
          int8_t v = 0;
          for (NnfId c : mgr.children(n)) v = static_cast<int8_t>(v | value[c]);
          value[n] = v;
          break;
        }
      }
    }
    if (value[root] == 1) on_model(a);
  }
}

}  // namespace tbc
