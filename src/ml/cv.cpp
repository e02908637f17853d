#include "ml/cv.h"

namespace vmtherm::ml {

std::vector<FoldIndices> make_folds(std::size_t n, std::size_t folds,
                                    Rng& rng) {
  detail::require_data(folds >= 2, "cross-validation needs >= 2 folds");
  detail::require_data(n >= folds,
                       "cross-validation needs at least one sample per fold");
  const auto perm = rng.permutation(n);

  // Assign shuffled samples round-robin so fold sizes differ by at most 1.
  std::vector<std::size_t> fold_of(n);
  for (std::size_t i = 0; i < n; ++i) fold_of[perm[i]] = i % folds;

  std::vector<FoldIndices> out(folds);
  // Round-robin assignment puts base + 1 samples in the first n % folds
  // folds and base in the rest.
  const std::size_t base = n / folds;
  const std::size_t extra = n % folds;
  for (std::size_t f = 0; f < folds; ++f) {
    const std::size_t validation_size = base + (f < extra ? 1 : 0);
    out[f].validation.reserve(validation_size);
    out[f].train.reserve(n - validation_size);
  }

  // Single pass over fold_of: sample i lands in its home fold's validation
  // list and every other fold's train list, all in increasing-i order.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t home = fold_of[i];
    out[home].validation.push_back(i);
    for (std::size_t f = 0; f < folds; ++f) {
      if (f != home) out[f].train.push_back(i);
    }
  }
  return out;
}

}  // namespace vmtherm::ml
