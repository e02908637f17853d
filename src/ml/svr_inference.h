// vmtherm/ml/svr_inference.h
//
// Batched, vectorized SVR inference — the serve-side hot path of the
// paper's stable-temperature predictor (Eq. 1 / Fig. 1a). The kernel lives
// in svr_inference.cpp and evaluates ml::SvrModel (svr.h) straight from its
// one support-vector store, a blocked transpose (feature-major within each
// 128-SV block) with per-SV squared norms precomputed, so an RBF query
// reduces to a unit-stride, auto-vectorized GEMV followed by a fused
// kernel-transform/coefficient-reduction pass. No ragged
// vector<vector<double>> pointer chasing, no per-query allocation.
//
// Determinism contract (matches the util::ThreadPool contract): every
// query is evaluated by exactly the same instruction sequence — same SV
// blocking, same fixed ascending-k reduction order, same exp_det
// polynomial — whether it arrives through predict(), predict_batch() on
// the calling thread, or predict_batch() sharded across a ThreadPool.
// Results are therefore bitwise-identical at any batch size and any
// thread count. (They are NOT bitwise-identical to a naive
// kernel_eval-summation for the RBF kernel, whose squared-distance
// summation order and libm exp differ; the equivalence is within a few
// ulps and the inference kernel itself is the reference.)

#pragma once

namespace vmtherm::ml {

/// Deterministic, branch-free exp: argument reduction by log2(e) plus a
/// Cephes-style rational approximation, scaled back with bit-twiddled
/// powers of two (no libm call, auto-vectorizable, <= 2 ulp). Identical
/// bits for identical inputs on every code path — the property the
/// bitwise-determinism contract of predict_batch is built on.
double exp_det(double x) noexcept;

}  // namespace vmtherm::ml
