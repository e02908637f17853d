// Tests for ml/cv: k-fold fold construction.

#include "ml/cv.h"

#include <gtest/gtest.h>

#include <set>

namespace vmtherm::ml {
namespace {

TEST(MakeFoldsTest, RejectsDegenerateInputs) {
  Rng rng(1);
  EXPECT_THROW((void)make_folds(10, 1, rng), DataError);
  EXPECT_THROW((void)make_folds(3, 5, rng), DataError);
}

TEST(MakeFoldsTest, EverySampleValidatedExactlyOnce) {
  Rng rng(2);
  const auto folds = make_folds(23, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::multiset<std::size_t> validated;
  for (const auto& f : folds) {
    for (std::size_t i : f.validation) validated.insert(i);
  }
  EXPECT_EQ(validated.size(), 23u);
  for (std::size_t i = 0; i < 23; ++i) {
    EXPECT_EQ(validated.count(i), 1u) << i;
  }
}

TEST(MakeFoldsTest, TrainAndValidationDisjointAndComplete) {
  Rng rng(3);
  const auto folds = make_folds(20, 4, rng);
  for (const auto& f : folds) {
    EXPECT_EQ(f.train.size() + f.validation.size(), 20u);
    std::set<std::size_t> train(f.train.begin(), f.train.end());
    for (std::size_t i : f.validation) {
      EXPECT_EQ(train.count(i), 0u);
    }
  }
}

TEST(MakeFoldsTest, FoldSizesBalanced) {
  Rng rng(4);
  const auto folds = make_folds(23, 5, rng);
  for (const auto& f : folds) {
    EXPECT_GE(f.validation.size(), 4u);
    EXPECT_LE(f.validation.size(), 5u);
  }
}

TEST(MakeFoldsTest, DeterministicGivenRngState) {
  Rng a(5);
  Rng b(5);
  const auto fa = make_folds(15, 3, a);
  const auto fb = make_folds(15, 3, b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].validation, fb[i].validation);
  }
}

TEST(MakeFoldsTest, MatchesReferenceConstructionOnFixedSeeds) {
  // Pins the exact fold layout: round-robin assignment over the seeded
  // permutation, every index list in increasing sample order. The
  // single-pass implementation must stay byte-identical to this reference.
  for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    Rng rng(seed);
    const auto folds = make_folds(23, 5, rng);

    Rng ref_rng(seed);
    const auto perm = ref_rng.permutation(23);
    std::vector<std::size_t> fold_of(23);
    for (std::size_t i = 0; i < 23; ++i) fold_of[perm[i]] = i % 5;

    ASSERT_EQ(folds.size(), 5u);
    for (std::size_t f = 0; f < 5; ++f) {
      std::vector<std::size_t> validation;
      std::vector<std::size_t> train;
      for (std::size_t i = 0; i < 23; ++i) {
        if (fold_of[i] == f) validation.push_back(i);
        else train.push_back(i);
      }
      EXPECT_EQ(folds[f].validation, validation) << "seed " << seed;
      EXPECT_EQ(folds[f].train, train) << "seed " << seed;
    }
  }
}

TEST(MakeFoldsTest, TrainListsDeterministicGivenRngState) {
  Rng a(9);
  Rng b(9);
  const auto fa = make_folds(37, 7, a);
  const auto fb = make_folds(37, 7, b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].train, fb[i].train);
    EXPECT_EQ(fa[i].validation, fb[i].validation);
  }
}

}  // namespace
}  // namespace vmtherm::ml
