// Differential tests between the two GEMM kernel families (DESIGN.md §11).
//
// The reference family is the bit-frozen ground truth: naive loops, pure
// mul+add. The fast family (register-blocked, cache-tiled, explicit FMA) must
// stay within 1e-12 of it on every shape — including the degenerate ones the
// tiled path is most likely to get wrong (1x1, single rows/columns, empty
// dimensions, sizes that are not multiples of the register tile) — and must
// be BIT-identical to itself run-to-run and across thread counts.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

// Restores the process-global kernel switches on scope exit so test order
// cannot leak a kernel selection into unrelated tests.
class KernelGuard {
 public:
  KernelGuard() : kernel_(nn_kernel()), threads_(nn_kernel_threads()) {}
  ~KernelGuard() {
    set_nn_kernel(kernel_);
    set_nn_kernel_threads(threads_);
  }

 private:
  NnKernel kernel_;
  int threads_;
};

Matrix random_matrix(int rows, int cols, double density, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    if (rng.uniform() < density) m.data()[i] = rng.uniform(-2.0, 2.0);
  }
  return m;
}

void expect_within(const Matrix& fast, const Matrix& ref, double tol,
                   const char* what) {
  ASSERT_TRUE(fast.same_shape(ref)) << what;
  for (int i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(fast.data()[i], ref.data()[i], tol)
        << what << " at flat index " << i;
  }
}

void expect_identical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (int i = 0; i < a.size(); ++i) {
    // Exact double equality on purpose: the determinism contract is bitwise.
    EXPECT_EQ(a.data()[i], b.data()[i]) << what << " at flat index " << i;
  }
}

struct Shape {
  int m, k, n;
};

// Degenerate and non-tile-multiple shapes, then randomized rectangles.
std::vector<Shape> test_shapes(Rng& rng) {
  std::vector<Shape> shapes = {
      {1, 1, 1},              // single element
      {1, 1, 17},             // 1 x N row
      {1, 9, 1},              // inner-product only
      {7, 1, 5},              // rank-one update
      {0, 5, 4}, {5, 0, 4}, {5, 4, 0},  // empty dimensions
      {4, 8, 8},              // exact register tile
      {5, 7, 9},              // off-by-one past the tile everywhere
      {13, 17, 11},           // nothing divides the tile sizes
      {3, 33, 31},            // row remainder smaller than the microkernel
      {46, 86, 92},           // ORION encoder layer-1 shape
  };
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({rng.uniform_int(1, 40), rng.uniform_int(1, 40),
                      rng.uniform_int(1, 40)});
  }
  return shapes;
}

constexpr double kTol = 1e-12;
constexpr double kDensities[] = {0.0, 0.15, 0.6, 1.0};

TEST(KernelDifferential, MatmulFamiliesAgreeOnAllShapes) {
  KernelGuard guard;
  Rng rng(20240806);
  for (const Shape& s : test_shapes(rng)) {
    for (const double density : kDensities) {
      const Matrix a = random_matrix(s.m, s.k, density, rng);
      const Matrix b = random_matrix(s.k, s.n, density, rng);
      set_nn_kernel(NnKernel::kReference);
      const Matrix ref = matmul(a, b);
      set_nn_kernel(NnKernel::kFast);
      const Matrix fast = matmul(a, b);
      expect_within(fast, ref, kTol, "matmul");
    }
  }
}

TEST(KernelDifferential, TransposedFamiliesAgreeOnAllShapes) {
  KernelGuard guard;
  Rng rng(77001);
  for (const Shape& s : test_shapes(rng)) {
    for (const double density : kDensities) {
      // matmul_transposed: a (m x k) * b^T with b stored n x k.
      const Matrix a = random_matrix(s.m, s.k, density, rng);
      const Matrix bt = random_matrix(s.n, s.k, density, rng);
      // matmul_transposed_a: a^T * c with a stored k x m.
      const Matrix a_tn = random_matrix(s.k, s.m, density, rng);
      const Matrix c = random_matrix(s.k, s.n, density, rng);
      set_nn_kernel(NnKernel::kReference);
      const Matrix ref_nt = matmul_transposed(a, bt);
      const Matrix ref_tn = matmul_transposed_a(a_tn, c);
      set_nn_kernel(NnKernel::kFast);
      expect_within(matmul_transposed(a, bt), ref_nt, kTol, "matmul_transposed");
      expect_within(matmul_transposed_a(a_tn, c), ref_tn, kTol, "matmul_transposed_a");
    }
  }
}

TEST(KernelDifferential, AffineEpiloguesAgreeOnAllShapes) {
  KernelGuard guard;
  Rng rng(31337);
  const Epilogue acts[] = {Epilogue::kNone, Epilogue::kRelu, Epilogue::kTanh};
  for (const Shape& s : test_shapes(rng)) {
    const Matrix x = random_matrix(s.m, s.k, 0.4, rng);
    const Matrix w = random_matrix(s.k, s.n, 0.8, rng);
    const Matrix bias = random_matrix(1, s.n, 1.0, rng);
    for (const Epilogue act : acts) {
      for (const Matrix* pbias : {static_cast<const Matrix*>(nullptr), &bias}) {
        set_nn_kernel(NnKernel::kReference);
        const Matrix ref = affine(x, w, pbias, act);
        set_nn_kernel(NnKernel::kFast);
        expect_within(affine(x, w, pbias, act), ref, kTol, "affine");
      }
    }
  }
}

TEST(KernelDifferential, BlockDiagonalFamiliesAgree) {
  KernelGuard guard;
  Rng rng(555);
  for (const int n : {1, 3, 16, 46}) {
    for (const int batch : {1, 2, 7}) {
      std::vector<Matrix> blocks;
      for (int g = 0; g < batch; ++g) {
        // Adjacency-like sparsity: mostly zero with a guaranteed diagonal.
        Matrix a = random_matrix(n, n, 0.15, rng);
        for (int i = 0; i < n; ++i) a.at(i, i) = rng.uniform(0.1, 1.0);
        blocks.push_back(std::move(a));
      }
      const BlockAdjacency adj(std::move(blocks));
      const int f = rng.uniform_int(1, 24);
      const int out = rng.uniform_int(1, 24);
      const Matrix h = random_matrix(batch * n, f, 0.5, rng);
      const Matrix delta = random_matrix(batch * n, f, 0.9, rng);
      const Matrix w = random_matrix(f, out, 1.0, rng);
      const Matrix bias = random_matrix(1, out, 1.0, rng);

      set_nn_kernel(NnKernel::kReference);
      const Matrix ref_tn = block_diag_matmul_tn(adj, delta);
      const Matrix ref_gcn = block_diag_gcn(adj, h, w, bias);
      set_nn_kernel(NnKernel::kFast);
      expect_within(block_diag_matmul_tn(adj, delta), ref_tn, kTol,
                    "block_diag_matmul_tn");
      expect_within(block_diag_gcn(adj, h, w, bias), ref_gcn, kTol,
                    "block_diag_gcn");
    }
  }
}

TEST(KernelDifferential, CsrIndexMatchesDenseBlocks) {
  Rng rng(99);
  std::vector<Matrix> blocks;
  for (int g = 0; g < 3; ++g) blocks.push_back(random_matrix(9, 9, 0.3, rng));
  const std::vector<Matrix> dense = blocks;  // keep a copy to diff against
  const BlockAdjacency adj(std::move(blocks));
  ASSERT_EQ(adj.count(), 3);
  ASSERT_EQ(adj.block_size(), 9);
  for (int g = 0; g < adj.count(); ++g) {
    Matrix rebuilt(9, 9);
    for (int r = 0; r < 9; ++r) {
      int prev_col = -1;
      for (std::size_t t = adj.row_begin(g, r); t < adj.row_end(g, r); ++t) {
        const int c = adj.csr_cols()[t];
        EXPECT_GT(c, prev_col) << "CSR columns must ascend within a row";
        prev_col = c;
        EXPECT_NE(adj.csr_vals()[t], 0.0);
        rebuilt.at(r, c) = adj.csr_vals()[t];
      }
    }
    expect_identical(rebuilt, dense[static_cast<std::size_t>(g)], "csr rebuild");
  }
}

TEST(KernelDifferential, FastKernelsAreBitIdenticalAcrossThreadCounts) {
  KernelGuard guard;
  Rng rng(4242);
  set_nn_kernel(NnKernel::kFast);
  // Big enough that the parallel path actually partitions rows.
  const Matrix a = random_matrix(97, 53, 0.5, rng);
  const Matrix b = random_matrix(53, 61, 0.5, rng);
  const Matrix bias = random_matrix(1, 61, 1.0, rng);
  set_nn_kernel_threads(1);
  const Matrix serial = affine(a, b, &bias, Epilogue::kTanh);
  const Matrix serial_mm = matmul(a, b);
  for (const int threads : {2, 3, 5, 8}) {
    set_nn_kernel_threads(threads);
    expect_identical(affine(a, b, &bias, Epilogue::kTanh), serial,
                     "affine across thread counts");
    expect_identical(matmul(a, b), serial_mm, "matmul across thread counts");
  }
}

TEST(KernelDifferential, FastKernelsAreBitIdenticalRunToRun) {
  KernelGuard guard;
  Rng rng(808);
  set_nn_kernel(NnKernel::kFast);
  const Matrix x = random_matrix(37, 29, 0.4, rng);
  const Matrix w = random_matrix(29, 31, 0.9, rng);
  const Matrix bias = random_matrix(1, 31, 1.0, rng);
  const Matrix first = affine(x, w, &bias, Epilogue::kRelu);
  for (int rep = 0; rep < 3; ++rep) {
    expect_identical(affine(x, w, &bias, Epilogue::kRelu), first, "run-to-run");
  }
}

}  // namespace
}  // namespace nptsn
