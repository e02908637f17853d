#include "ml/model_io.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace vmtherm::ml {

namespace {

constexpr const char* kSvrMagic = "vmtherm_svr v1";
constexpr const char* kScalerMagic = "vmtherm_scaler v1";

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> token) || token != expected) {
    throw IoError("model file: expected token '" + expected + "', got '" +
                  token + "'");
  }
}

/// Reads the next non-empty line (tolerates a trailing newline left by a
/// previous token-wise reader sharing the stream).
std::string next_content_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.find_first_not_of(" \t\r") != std::string::npos) {
      return line;
    }
  }
  return {};
}

double read_double(std::istream& is, const char* what) {
  double v = 0.0;
  if (!(is >> v)) throw IoError(std::string("model file: bad ") + what);
  return v;
}

long read_long(std::istream& is, const char* what) {
  long v = 0;
  if (!(is >> v) || v < 0) {
    throw IoError(std::string("model file: bad ") + what);
  }
  return v;
}

// Sanity caps on parsed element counts: a corrupted or hostile file must
// fail with IoError, not drive std::vector into length_error/bad_alloc.
constexpr long kMaxDim = 1 << 16;        ///< features per vector
constexpr long kMaxSupportVectors = 1 << 24;

long read_count(std::istream& is, const char* what, long cap) {
  const long v = read_long(is, what);
  if (v > cap) {
    throw IoError(std::string("model file: implausible ") + what + " (" +
                  std::to_string(v) + " > " + std::to_string(cap) + ")");
  }
  return v;
}

}  // namespace

void save_svr(std::ostream& os, const SvrModel& model) {
  os << kSvrMagic << '\n';
  os << std::setprecision(17);
  const auto& k = model.kernel();
  os << "kernel " << kernel_kind_name(k.kind) << " gamma " << k.gamma
     << " degree " << k.degree << " coef0 " << k.coef0 << '\n';
  os << "bias " << model.bias() << '\n';
  os << "dim " << model.dim() << " nsv " << model.support_vector_count()
     << '\n';
  for (std::size_t i = 0; i < model.support_vector_count(); ++i) {
    os << model.coefficients()[i];
    for (double v : model.support_vector(i)) os << ' ' << v;
    os << '\n';
  }
}

SvrModel load_svr(std::istream& is) {
  if (next_content_line(is) != kSvrMagic) {
    throw IoError("svr model file: bad magic");
  }

  KernelParams kernel;
  expect_token(is, "kernel");
  std::string kernel_name;
  if (!(is >> kernel_name)) throw IoError("svr model file: missing kernel");
  kernel.kind = kernel_kind_from_name(kernel_name);
  expect_token(is, "gamma");
  kernel.gamma = read_double(is, "gamma");
  expect_token(is, "degree");
  kernel.degree = static_cast<int>(read_long(is, "degree"));
  expect_token(is, "coef0");
  kernel.coef0 = read_double(is, "coef0");

  expect_token(is, "bias");
  const double bias = read_double(is, "bias");

  expect_token(is, "dim");
  const auto dim = static_cast<std::size_t>(read_count(is, "dim", kMaxDim));
  expect_token(is, "nsv");
  const auto nsv =
      static_cast<std::size_t>(read_count(is, "nsv", kMaxSupportVectors));

  // Storage grows as rows parse: the header's nsv is untrusted, and
  // reserving it up front would turn a short body under a huge count into
  // bad_alloc instead of IoError.
  std::vector<std::vector<double>> svs;
  std::vector<double> coefs;
  for (std::size_t i = 0; i < nsv; ++i) {
    coefs.push_back(read_double(is, "coefficient"));
    std::vector<double> sv(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      sv[j] = read_double(is, "support vector value");
    }
    svs.push_back(std::move(sv));
  }
  return SvrModel(kernel, svs, std::move(coefs), bias);
}

void save_scaler(std::ostream& os, const MinMaxScaler& scaler) {
  os << kScalerMagic << '\n';
  os << std::setprecision(17);
  os << "dim " << scaler.dim() << '\n';
  for (std::size_t j = 0; j < scaler.dim(); ++j) {
    os << scaler.mins()[j] << ' ' << scaler.maxs()[j] << '\n';
  }
}

MinMaxScaler load_scaler(std::istream& is) {
  if (next_content_line(is) != kScalerMagic) {
    throw IoError("scaler file: bad magic");
  }
  expect_token(is, "dim");
  const auto dim = static_cast<std::size_t>(read_count(is, "dim", kMaxDim));
  std::vector<double> mins(dim);
  std::vector<double> maxs(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    mins[j] = read_double(is, "scaler min");
    maxs[j] = read_double(is, "scaler max");
  }
  return MinMaxScaler(std::move(mins), std::move(maxs));
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot create file: " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open file: " + path);
  return in;
}

}  // namespace

void save_svr_file(const std::string& path, const SvrModel& model) {
  auto out = open_out(path);
  save_svr(out, model);
}

SvrModel load_svr_file(const std::string& path) {
  auto in = open_in(path);
  return load_svr(in);
}

MinMaxScaler load_scaler_file(const std::string& path) {
  auto in = open_in(path);
  return load_scaler(in);
}

}  // namespace vmtherm::ml
