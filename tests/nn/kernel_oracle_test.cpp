// Bitwise oracle tests for the rewritten backward kernels (DESIGN.md §11).
//
// The weight-gradient GEMM walks K in panels, the GCN backward scatters over
// the forward CSR index, and the input gradient runs the affine
// micro-kernels on a packed W^T. Each must reproduce the bits of the kernel
// it replaced, frozen in kernel_oracles.cpp. The comparison is memcmp, so a
// -0.0 where the oracle has +0.0 fails too.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernel_oracles.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

// Selects the fast family and restores the process-global kernel switches
// on scope exit.
class FastKernels {
 public:
  FastKernels() : kernel_(nn_kernel()), threads_(nn_kernel_threads()) {
    set_nn_kernel(NnKernel::kFast);
  }
  ~FastKernels() {
    set_nn_kernel(kernel_);
    set_nn_kernel_threads(threads_);
  }

 private:
  NnKernel kernel_;
  int threads_;
};

constexpr int kThreadCounts[] = {1, 4};

Matrix random_matrix(int rows, int cols, double density, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    if (rng.uniform() < density) m.data()[i] = rng.uniform(-2.0, 2.0);
  }
  return m;
}

// A gradient after a ReLU mask: gated entries are +0.0 or -0.0 (a masked
// negative upstream value keeps its sign through a multiply by zero).
Matrix masked_delta(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.25) {
      m.data()[i] = -0.0;
    } else if (u >= 0.5) {
      m.data()[i] = rng.uniform(-2.0, 2.0);
    }
  }
  return m;
}

void expect_bitwise(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  if (got.size() == 0) return;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(double) * got.size()), 0)
      << what;
}

std::string describe(const char* op, int m, int k, int n, int threads) {
  return std::string(op) + " m=" + std::to_string(m) + " k=" + std::to_string(k) +
         " n=" + std::to_string(n) + " threads=" + std::to_string(threads);
}

TEST(KernelOracle, WeightGradientMatchesUnpanelledKernel) {
  const FastKernels fast;
  Rng rng(1301);
  struct Width {
    int m, n;
  };
  // Widths that are and are not multiples of the register tiles.
  const Width widths[] = {{1, 1}, {3, 5}, {7, 9}, {13, 17}, {41, 33}, {86, 92}, {92, 86}};
  // K below, equal to, just past and not a multiple of the 256-row panel,
  // plus K = 0 (the result must still be all +0.0).
  const int depths[] = {0, 1, 255, 256, 257, 511, 700, 1280};
  for (const int threads : kThreadCounts) {
    set_nn_kernel_threads(threads);
    for (const int k : depths) {
      for (const Width w : widths) {
        const Matrix a = random_matrix(k, w.m, 0.6, rng);  // post-ReLU activations
        const Matrix b = masked_delta(k, w.n, rng);
        expect_bitwise(matmul_transposed_a(a, b), oracle::matmul_tn(a, b),
                       describe("tn", w.m, k, w.n, threads));
      }
    }
    // The ORION GCN weight-gradient shape itself.
    const Matrix h = random_matrix(11776, 86, 0.6, rng);
    const Matrix delta = masked_delta(11776, 92, rng);
    expect_bitwise(matmul_transposed_a(h, delta), oracle::matmul_tn(h, delta),
                   describe("tn orion", 86, 11776, 92, threads));
  }
}

TEST(KernelOracle, InputGradientMatchesDotProductKernel) {
  const FastKernels fast;
  Rng rng(1302);
  struct Shape {
    int m, k, n;
  };
  const Shape shapes[] = {
      {0, 5, 4},   {5, 0, 4},    {5, 4, 0},    {1, 1, 1},     {3, 33, 31},
      {13, 17, 11}, {97, 92, 86}, {300, 92, 92}, {2944, 92, 86},
  };
  for (const int threads : kThreadCounts) {
    set_nn_kernel_threads(threads);
    for (const Shape s : shapes) {
      const Matrix w = random_matrix(s.n, s.k, 1.0, rng);  // W stored N x K
      // Dense enough for the register tiles, and sparse enough for the
      // zero-skipping row path.
      const Matrix dense = masked_delta(s.m, s.k, rng);
      const Matrix sparse = random_matrix(s.m, s.k, 0.1, rng);
      expect_bitwise(matmul_transposed(dense, w), oracle::matmul_nt(dense, w),
                     describe("nt dense", s.m, s.k, s.n, threads));
      expect_bitwise(matmul_transposed(sparse, w), oracle::matmul_nt(sparse, w),
                     describe("nt sparse", s.m, s.k, s.n, threads));
    }
  }
}

TEST(KernelOracle, GcnBackwardMatchesDenseBlockKernel) {
  const FastKernels fast;
  Rng rng(1303);
  for (const int threads : kThreadCounts) {
    set_nn_kernel_threads(threads);
    for (const int n : {1, 3, 16, 46}) {
      for (const int batch : {1, 7, 64}) {
        std::vector<Matrix> blocks;
        for (int g = 0; g < batch; ++g) {
          // Not symmetric on purpose: a kernel that silently used A instead
          // of A^T would still pass on a normalized adjacency.
          Matrix a = random_matrix(n, n, 0.15, rng);
          for (int i = 0; i < n; ++i) a.at(i, i) = rng.uniform(0.1, 1.0);
          if (n > 1) {
            a.at(0, n - 1) = 0.75;
            a.at(n - 1, 0) = 0.0;
          }
          blocks.push_back(std::move(a));
        }
        const BlockAdjacency adj(std::move(blocks));
        for (const int cols : {1, 5, 92}) {
          const std::string what = describe("block tn", batch * n, n, cols, threads);
          const Matrix delta = masked_delta(batch * n, cols, rng);
          expect_bitwise(block_diag_matmul_tn(adj, delta), oracle::block_matmul_tn(adj, delta),
                         what);
          // The ReLU-gated form gives the oracle's bits on the gated delta.
          const Matrix relu_out = masked_delta(batch * n, cols, rng);
          Matrix gated = delta;
          for (int i = 0; i < gated.size(); ++i) {
            if (relu_out.data()[i] <= 0.0) gated.data()[i] = 0.0;
          }
          expect_bitwise(block_diag_matmul_tn(adj, delta, &relu_out),
                         oracle::block_matmul_tn(adj, gated), what + " relu");
        }
      }
    }
  }
}

}  // namespace
}  // namespace nptsn
