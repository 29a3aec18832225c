// Test-only oracles: frozen copies of the fast-family backward kernels as
// they were before the panelled weight-gradient GEMM, the CSR scatter GCN
// backward and the packed-W^T input gradient replaced them. The live
// kernels must reproduce these bit for bit (tests/nn/kernel_oracle_test.cpp).
#pragma once

#include "nn/matrix.hpp"

namespace nptsn::oracle {

// a^T * b (a row-major K x M), one unpanelled pass over K per output tile.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
// a * b^T (b row-major N x K), the scalar 4 x 8 dot-product tile.
Matrix matmul_nt(const Matrix& a, const Matrix& b);
// Row block g = blocks[g]^T * delta_g as a dense per-block a^T * b.
Matrix block_matmul_tn(const BlockAdjacency& adj, const Matrix& delta);

}  // namespace nptsn::oracle
