// Bayesian-network text IO and BN-classifier compilation.

#include <gtest/gtest.h>

#include "bayes/io.h"
#include "bayes/network.h"
#include "bayes/varelim.h"
#include "vtree/vtree.h"
#include "xai/bn_classifier.h"

namespace tbc {
namespace {

BayesianNetwork MedicalNetwork() {
  BayesianNetwork net;
  BnVar sex = net.AddBinary("sex", {}, {0.55});
  BnVar c = net.AddBinary("c", {sex}, {0.05, 0.15});
  BnVar t1 = net.AddBinary("T1", {c}, {0.10, 0.85});
  BnVar t2 = net.AddBinary("T2", {c}, {0.20, 0.75});
  net.AddBinary("AGREE", {t1, t2}, {0.95, 0.05, 0.05, 0.95});
  return net;
}

TEST(BayesIoTest, RoundTripBinaryNetwork) {
  BayesianNetwork net = MedicalNetwork();
  auto parsed = ParseNetwork(WriteNetwork(net));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const BayesianNetwork& copy = parsed.value();
  ASSERT_EQ(copy.num_vars(), net.num_vars());
  for (BnVar v = 0; v < net.num_vars(); ++v) {
    EXPECT_EQ(copy.name(v), net.name(v));
    EXPECT_EQ(copy.parents(v), net.parents(v));
  }
  for (uint64_t i = 0; i < net.NumInstantiations(); ++i) {
    const BnInstantiation inst = net.InstantiationAt(i);
    ASSERT_NEAR(copy.JointProbability(inst), net.JointProbability(inst), 1e-15);
  }
}

TEST(BayesIoTest, RoundTripMultiValued) {
  BayesianNetwork net;
  BnVar w = net.AddVariable("w", 3, {}, {0.5, 0.3, 0.2});
  net.AddVariable("m", 2, {w}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  auto parsed = ParseNetwork(WriteNetwork(net));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().cardinality(0), 3u);
  EXPECT_NEAR(parsed.value().JointProbability({2, 1}), 0.16, 1e-12);
}

TEST(BayesIoTest, ParseErrors) {
  EXPECT_FALSE(ParseNetwork("").ok());
  EXPECT_FALSE(ParseNetwork("var a 2 0\ncpt 0 0.5 0.5\n").ok());  // no header
  EXPECT_FALSE(ParseNetwork("net 1\nvar a 2 0\n").ok());          // no cpt
  EXPECT_FALSE(ParseNetwork("net 1\nvar a 2 0\ncpt 0 0.9 0.2\n").ok());
  EXPECT_FALSE(ParseNetwork("net 1\nvar a 2 1 5\ncpt 0 0.5 0.5\n").ok());
  EXPECT_FALSE(ParseNetwork("net 1\nzzz\n").ok());
  // Comments allowed.
  EXPECT_TRUE(ParseNetwork("# hi\nnet 1\nvar a 2 0\ncpt 0 0.4 0.6\n").ok());
}

TEST(BnClassifierTest, CompilationMatchesThresholdDecision) {
  BayesianNetwork net = MedicalNetwork();
  // Classify the condition from the three observables (non-naive
  // structure: AGREE depends on T1 and T2).
  BnClassifier classifier(net, net.VarByName("c"),
                          {net.VarByName("T1"), net.VarByName("T2"),
                           net.VarByName("AGREE")},
                          0.3);
  ObddManager mgr(Vtree::IdentityOrder(3));
  const ObddId f = classifier.CompileToObdd(mgr);
  for (int bits = 0; bits < 8; ++bits) {
    Assignment e = {(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    ASSERT_EQ(mgr.Evaluate(f, e), classifier.Classify(e)) << bits;
  }
  // Positive tests push the posterior up.
  EXPECT_GT(classifier.Posterior({true, true, true}),
            classifier.Posterior({false, false, true}));
}

TEST(BnClassifierTest, ThresholdSweepChangesDecisionFunction) {
  BayesianNetwork net = MedicalNetwork();
  const std::vector<BnVar> features = {net.VarByName("T1"), net.VarByName("T2")};
  ObddManager mgr(Vtree::IdentityOrder(2));
  BnClassifier lenient(net, 1, features, 0.05);
  BnClassifier strict(net, 1, features, 0.95);
  const ObddId f_lenient = lenient.CompileToObdd(mgr);
  const ObddId f_strict = strict.CompileToObdd(mgr);
  // Monotone in the threshold: strict ⊆ lenient.
  EXPECT_EQ(mgr.Implies(f_strict, f_lenient), mgr.True());
  EXPECT_NE(f_strict, f_lenient);
}

}  // namespace
}  // namespace tbc
