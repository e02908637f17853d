// vmtherm/ml/cv.h
//
// k-fold fold assignment for the cross-validation easygrid runs inside its
// parameter search (the paper uses 10-fold); grid_search_svr runs the fold
// loop itself.

#pragma once

#include <vector>

#include "ml/dataset.h"

namespace vmtherm::ml {

/// Index sets for k-fold CV: fold f is the validation set, the rest train.
struct FoldIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> validation;
};

/// Builds k folds over n samples after a seeded shuffle. Every sample
/// appears in exactly one validation fold. Throws DataError when
/// n < folds or folds < 2.
std::vector<FoldIndices> make_folds(std::size_t n, std::size_t folds,
                                    Rng& rng);

}  // namespace vmtherm::ml
