// vmtherm/ml/model_io.h
//
// Text serialization of trained models (SVR + scaler), in the spirit of
// LIBSVM's model files: a deployed predictor can be trained offline,
// persisted, and loaded by the online prediction service.

#pragma once

#include <iosfwd>
#include <string>

#include "ml/scaler.h"
#include "ml/svr.h"

namespace vmtherm::ml {

/// Writes the SVR model as text. Format:
///   vmtherm_svr v1
///   kernel <name> gamma <g> degree <d> coef0 <r>
///   bias <b>
///   dim <d> nsv <n>
///   <coef> <x_1> ... <x_d>     (one line per support vector)
void save_svr(std::ostream& os, const SvrModel& model);

/// Parses the format above. Throws IoError on malformed input.
SvrModel load_svr(std::istream& is);

/// Writes the scaler ranges as text.
void save_scaler(std::ostream& os, const MinMaxScaler& scaler);

/// Parses scaler ranges. Throws IoError on malformed input.
MinMaxScaler load_scaler(std::istream& is);

/// File-path conveniences (throw IoError if the file cannot be
/// opened/created).
void save_svr_file(const std::string& path, const SvrModel& model);
SvrModel load_svr_file(const std::string& path);
MinMaxScaler load_scaler_file(const std::string& path);

}  // namespace vmtherm::ml
