// Throughput kernels for the NN hot path (DESIGN.md §11).
//
// Two interchangeable kernel families sit behind the free functions of
// matrix.hpp:
//
//   kReference  the original naive loops — the ground truth every fast
//               kernel is differential-tested against, and the kernel the
//               bit-identity/checkpoint suites pin their goldens to.
//   kFast       register-blocked, cache-tiled GEMM with fused bias +
//               activation epilogues and an optional ThreadPool-parallel
//               path for large shapes.
//
// Determinism contract: every fast kernel accumulates each output element
// with a SINGLE accumulator over ascending k. Tiling only reorders which
// elements are computed when, never the reduction order within an element,
// and the parallel path partitions output rows into fixed-size chunks that
// are independent of the thread count. Fast results are therefore
// bit-identical run-to-run and across thread counts (tested in
// tests/nn/kernel_differential_test.cpp, and against frozen copies of the
// earlier backward kernels in tests/nn/kernel_oracle_test.cpp);
// fast-vs-reference may differ by FMA contraction only, bounded at 1e-12
// relative in the differential suite.
#pragma once

#include "nn/matrix.hpp"

namespace nptsn::nnk {

// All kernels overwrite `out` (resizing it to the result shape); `out` must
// not alias an input. Shape checks live in the matrix.hpp dispatchers.

// --- reference family (naive loops, the retained ground truth) --------------
void matmul_reference(const Matrix& a, const Matrix& b, Matrix& out);
// out = a * b^T
void matmul_nt_reference(const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T * b
void matmul_tn_reference(const Matrix& a, const Matrix& b, Matrix& out);
// out = act(a * b + bias); bias is a 1 x N row broadcast or nullptr.
void affine_reference(const Matrix& a, const Matrix& b, const Matrix* bias,
                      Epilogue act, Matrix& out);

// --- fast family (register-blocked, cache-tiled, optional parallel) ----------
void matmul_fast(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_nt_fast(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_tn_fast(const Matrix& a, const Matrix& b, Matrix& out);
void affine_fast(const Matrix& a, const Matrix& b, const Matrix* bias,
                 Epilogue act, Matrix& out);

// --- block-diagonal batched GEMM (the GCN layer and its backward) ----------
// h/delta stack one n x C block per graph; out row block g is
// relu(blocks[g] * (h_g * w + bias)) (forward) or blocks[g]^T * delta_g
// (backward). Operating on the stacked matrix in place is what these buy:
// the per-graph copy-out/copy-back and the per-call allocations of the naive
// formulation are pure overhead at GCN sizes. The adjacencies arrive as a
// staged BlockAdjacency: the fast kernels walk its CSR index (built once,
// reused across layers, heads, PPO iterations, forward and backward), the
// reference kernels read the retained dense blocks. Dispatchers:
// block_diag_gcn / block_diag_matmul_tn.

// relu_out (may be null) gates delta by the ReLU derivative first.
void block_matmul_tn_reference(const BlockAdjacency& adj, const Matrix& delta,
                               const Matrix* relu_out, Matrix& out);
void block_matmul_tn_fast(const BlockAdjacency& adj, const Matrix& delta,
                          const Matrix* relu_out, Matrix& out);
// The affine product for graph g lands in an n x out scratch tile that stays
// cache-resident until the propagation consumes it, so no full-size
// (B n) x out intermediate ever exists.
void block_gcn_reference(const BlockAdjacency& adj, const Matrix& h,
                         const Matrix& w, const Matrix& bias, Matrix& out);
void block_gcn_fast(const BlockAdjacency& adj, const Matrix& h,
                    const Matrix& w, const Matrix& bias, Matrix& out);

}  // namespace nptsn::nnk
