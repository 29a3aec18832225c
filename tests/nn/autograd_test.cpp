// Gradient correctness: every differentiable op is checked against central
// finite differences, plus graph-structure behaviors (accumulation, reuse,
// constants, masking).
#include "nn/autograd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace nptsn {
namespace {

Matrix random_matrix(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
  return m;
}

// Central-difference gradient of scalar_fn at `point`, compared entrywise
// with the autograd gradient.
void check_gradient(const Matrix& point,
                    const std::function<Tensor(const Tensor&)>& scalar_fn,
                    double tolerance = 1e-6) {
  Tensor x = Tensor::parameter(point);
  Tensor loss = scalar_fn(x);
  loss.backward();
  const Matrix analytic = x.grad();

  const double eps = 1e-6;
  for (int i = 0; i < point.size(); ++i) {
    Matrix plus = point;
    plus.data()[i] += eps;
    Matrix minus = point;
    minus.data()[i] -= eps;
    const double f_plus = scalar_fn(Tensor::parameter(plus)).item();
    const double f_minus = scalar_fn(Tensor::parameter(minus)).item();
    const double numeric = (f_plus - f_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tolerance) << "entry " << i;
  }
}

// A scalar that weighs every output entry differently, so every entry's
// gradient is exercised.
Tensor weighted_sum(const Tensor& t, const Matrix& weights) {
  return sum_all(hadamard(t, Tensor::constant(weights)));
}

TEST(Autograd, TensorBasics) {
  Tensor t = Tensor::constant(Matrix::from({{1.0, 2.0}}));
  EXPECT_TRUE(t.defined());
  EXPECT_FALSE(t.requires_grad());
  EXPECT_EQ(t.rows(), 1);
  EXPECT_EQ(t.cols(), 2);

  Tensor p = Tensor::parameter(Matrix(1, 1, 3.0));
  EXPECT_TRUE(p.requires_grad());
  EXPECT_DOUBLE_EQ(p.item(), 3.0);

  Tensor empty;
  EXPECT_FALSE(empty.defined());
  EXPECT_THROW(empty.value(), std::invalid_argument);
}

TEST(Autograd, ItemRequiresScalar) {
  Tensor t = Tensor::constant(Matrix(2, 2));
  EXPECT_THROW(t.item(), std::invalid_argument);
}

TEST(Autograd, BackwardRequiresScalarWithGrad) {
  Tensor c = Tensor::constant(Matrix(1, 1, 2.0));
  EXPECT_THROW(c.backward(), std::invalid_argument);  // no parameters involved
  Tensor p = Tensor::parameter(Matrix(2, 2));
  EXPECT_THROW(p.backward(), std::invalid_argument);  // not a scalar
}

TEST(Autograd, SimpleChainGradient) {
  // loss = sum(3 * x) -> dloss/dx = 3.
  Tensor x = Tensor::parameter(Matrix::from({{1.0, -2.0}}));
  Tensor loss = sum_all(scale(x, 3.0));
  loss.backward();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 1), 3.0);
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  Tensor x = Tensor::parameter(Matrix(1, 1, 1.0));
  sum_all(scale(x, 2.0)).backward();
  sum_all(scale(x, 2.0)).backward();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 4.0);
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 0.0);
}

TEST(Autograd, ReusedTensorGetsSummedGradient) {
  // loss = sum(x + x) -> dloss/dx = 2.
  Tensor x = Tensor::parameter(Matrix(1, 3, 1.0));
  sum_all(add(x, x)).backward();
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(x.grad().at(0, j), 2.0);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Tensor x = Tensor::parameter(Matrix(1, 2, 1.0));
  Tensor c = Tensor::constant(Matrix(1, 2, 5.0));
  sum_all(hadamard(x, c)).backward();
  EXPECT_TRUE(c.grad().empty() || c.grad().max_abs() == 0.0);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 5.0);
}

TEST(AutogradGradCheck, Matmul) {
  Rng rng(1);
  const Matrix a = random_matrix(3, 4, rng);
  const Matrix b = random_matrix(4, 2, rng);
  // Gradient w.r.t. the left operand.
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(matmul(x, Tensor::constant(b)));
  });
  // Gradient w.r.t. the right operand.
  check_gradient(b, [&](const Tensor& x) {
    return sum_all(matmul(Tensor::constant(a), x));
  });
}

TEST(AutogradGradCheck, AddSubScaleHadamard) {
  Rng rng(2);
  const Matrix a = random_matrix(2, 3, rng);
  const Matrix b = random_matrix(2, 3, rng);
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(hadamard(add(x, Tensor::constant(b)),
                            sub(x, scale(Tensor::constant(b), 0.5))));
  });
}

TEST(AutogradGradCheck, Relu) {
  // Stay away from the kink at 0 for finite differences.
  const Matrix a = Matrix::from({{0.5, -0.7, 1.2, -0.1}});
  check_gradient(a, [](const Tensor& x) { return sum_all(relu(x)); });
}

TEST(AutogradGradCheck, TanhExp) {
  Rng rng(4);
  const Matrix a = random_matrix(2, 2, rng);
  // tanh exists only as the fused affine epilogue; an identity weight and a
  // zero bias isolate its elementwise derivative.
  const Matrix identity = Matrix::from({{1.0, 0.0}, {0.0, 1.0}});
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(affine_act(x, Tensor::constant(identity), Tensor::constant(Matrix(1, 2)),
                              Epilogue::kTanh));
  });
  check_gradient(a, [](const Tensor& x) { return sum_all(exp_op(x)); }, 1e-5);
}

TEST(AutogradGradCheck, MeanRowsAndSelect) {
  Rng rng(5);
  const Matrix a = random_matrix(4, 3, rng);
  check_gradient(a, [](const Tensor& x) { return sum_all(pick_cols(mean_rows(x), {1})); });
}

TEST(AutogradGradCheck, PickCols) {
  Rng rng(15);
  const Matrix a = random_matrix(4, 3, rng);
  const Matrix weights = random_matrix(4, 1, rng);
  // Every column is picked by some row and row 3 repeats row 0's column.
  check_gradient(a, [&](const Tensor& x) {
    return weighted_sum(pick_cols(x, {2, 0, 1, 2}), weights);
  });
  // A one-column input: every row picks its only entry.
  const Matrix single = random_matrix(3, 1, rng);
  check_gradient(single, [&](const Tensor& x) {
    return weighted_sum(pick_cols(x, {0, 0, 0}), Matrix::from({{0.5}, {-1.5}, {2.0}}));
  });
}

TEST(Autograd, PickColsValuesAndChecks) {
  const Tensor a = Tensor::constant(Matrix::from({{1.0, 2.0}, {3.0, 4.0}}));
  const Tensor picked = pick_cols(a, {1, 0});
  EXPECT_EQ(picked.rows(), 2);
  EXPECT_EQ(picked.cols(), 1);
  EXPECT_DOUBLE_EQ(picked.value().at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(picked.value().at(1, 0), 3.0);
  EXPECT_THROW(pick_cols(a, {0}), std::invalid_argument);
  EXPECT_THROW(pick_cols(a, {0, 2}), std::invalid_argument);
  EXPECT_THROW(pick_cols(a, {-1, 0}), std::invalid_argument);
}

TEST(AutogradGradCheck, ConcatCols) {
  Rng rng(6);
  const Matrix a = random_matrix(2, 3, rng);
  const Matrix b = random_matrix(2, 2, rng);
  const Matrix weights = random_matrix(2, 5, rng);
  check_gradient(a, [&](const Tensor& x) {
    return weighted_sum(concat_cols(x, Tensor::constant(b)), weights);
  });
  check_gradient(b, [&](const Tensor& x) {
    return weighted_sum(concat_cols(Tensor::constant(a), x), weights);
  });
}

TEST(AutogradGradCheck, ClampInteriorAndExterior) {
  // Interior entries differentiate to 1, clamped entries to 0; keep values
  // away from the clamp boundaries for the finite difference.
  const Matrix a = Matrix::from({{0.5, 2.0, -2.0, 0.9}});
  check_gradient(a, [](const Tensor& x) { return sum_all(clamp(x, -1.0, 1.0)); });
}

TEST(AutogradGradCheck, Min2RoutesGradient) {
  const Matrix a = Matrix::from({{0.5, 2.0}});
  const Matrix b = Matrix::from({{1.0, 1.0}});
  check_gradient(a, [&](const Tensor& x) {
    return sum_all(min2(x, Tensor::constant(b)));
  });
  check_gradient(b, [&](const Tensor& x) {
    return sum_all(min2(Tensor::constant(a), x));
  });
}

TEST(AutogradGradCheck, MaskedLogSoftmax) {
  Rng rng(8);
  const Matrix logits = random_matrix(3, 5, rng);
  // Row 0 masks two entries, row 1 leaves a single legal action (its
  // log-prob is constant 0, so its gradient must be exactly zero), row 2
  // masks nothing.
  const Matrix mask = Matrix::from({{1.0, 0.0, 1.0, 1.0, 0.0},
                                    {0.0, 0.0, 0.0, 1.0, 0.0},
                                    {1.0, 1.0, 1.0, 1.0, 1.0}});
  // Masked outputs are the constant -1e30; zero weights keep them out of the
  // finite difference.
  Matrix weights = random_matrix(3, 5, rng);
  for (int i = 0; i < weights.size(); ++i) {
    if (mask.data()[i] == 0.0) weights.data()[i] = 0.0;
  }
  check_gradient(logits, [&](const Tensor& x) {
    return weighted_sum(masked_log_softmax_rows(x, mask), weights);
  });
  // Through the PPO gather: one picked log-prob per row.
  check_gradient(logits, [&](const Tensor& x) {
    return weighted_sum(pick_cols(masked_log_softmax_rows(x, mask), {2, 3, 0}),
                        Matrix::from({{1.0}, {-2.0}, {0.5}}));
  });

  Tensor x = Tensor::parameter(logits);
  weighted_sum(masked_log_softmax_rows(x, mask), weights).backward();
  for (int i = 0; i < logits.size(); ++i) {
    if (mask.data()[i] == 0.0) {
      EXPECT_EQ(x.grad().data()[i], 0.0) << "masked entry " << i;
    }
  }
  for (int j = 0; j < logits.cols(); ++j) EXPECT_EQ(x.grad().at(1, j), 0.0);
}

TEST(Autograd, MaskedLogSoftmaxValues) {
  const Tensor logits = Tensor::constant(Matrix::from({{1.0, 100.0, 1.0}, {2.0, 5.0, 7.0}}));
  const Matrix mask = Matrix::from({{1.0, 0.0, 1.0}, {0.0, 1.0, 0.0}});
  const Tensor logp = masked_log_softmax_rows(logits, mask);
  // Masked entry ignored: the two unmasked logits are equal -> log(1/2).
  EXPECT_NEAR(logp.value().at(0, 0), std::log(0.5), 1e-12);
  EXPECT_NEAR(logp.value().at(0, 2), std::log(0.5), 1e-12);
  EXPECT_LT(logp.value().at(0, 1), -1e20);  // effectively -inf
  // A single legal action has probability one.
  EXPECT_EQ(logp.value().at(1, 1), 0.0);
  EXPECT_LT(logp.value().at(1, 0), -1e20);
  EXPECT_LT(logp.value().at(1, 2), -1e20);
}

TEST(Autograd, MaskedLogSoftmaxNumericallyStable) {
  const Tensor logits = Tensor::constant(Matrix::from({{1000.0, 999.0}}));
  const Tensor logp = masked_log_softmax_rows(logits, Matrix(1, 2, 1.0));
  EXPECT_TRUE(std::isfinite(logp.value().at(0, 0)));
  EXPECT_NEAR(std::exp(logp.value().at(0, 0)) + std::exp(logp.value().at(0, 1)), 1.0,
              1e-9);
}

TEST(Autograd, MaskedLogSoftmaxAllMaskedThrows) {
  const Tensor logits = Tensor::constant(Matrix(2, 3));
  const Matrix empty_row = Matrix::from({{1.0, 0.0, 0.0}, {0.0, 0.0, 0.0}});
  EXPECT_THROW(masked_log_softmax_rows(logits, empty_row), std::invalid_argument);
  EXPECT_THROW(masked_log_softmax_rows(logits, Matrix(2, 2, 1.0)), std::invalid_argument);
}

TEST(AutogradGradCheck, Transpose) {
  Rng rng(9);
  const Matrix a = random_matrix(2, 4, rng);
  const Matrix weights = random_matrix(4, 2, rng);
  check_gradient(a, [&](const Tensor& x) { return weighted_sum(transpose_op(x), weights); });
}

TEST(AutogradGradCheck, LeakyRelu) {
  const Matrix a = Matrix::from({{0.5, -0.7, 1.2, -0.1}});
  check_gradient(a, [](const Tensor& x) { return sum_all(leaky_relu(x, 0.2)); });
}

TEST(Autograd, LeakyReluValues) {
  const Tensor y = leaky_relu(Tensor::constant(Matrix::from({{2.0, -2.0}})), 0.1);
  EXPECT_DOUBLE_EQ(y.value().at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(y.value().at(0, 1), -0.2);
}

TEST(AutogradGradCheck, MaskedSoftmaxRows) {
  Rng rng(10);
  const Matrix scores = random_matrix(3, 3, rng);
  Matrix mask(3, 3);
  mask.at(0, 0) = mask.at(0, 1) = 1.0;
  mask.at(1, 1) = mask.at(1, 2) = 1.0;
  mask.at(2, 0) = mask.at(2, 1) = mask.at(2, 2) = 1.0;
  check_gradient(scores, [&](const Tensor& x) {
    // A non-uniform reduction so every entry's gradient is exercised.
    const Tensor probs = masked_softmax_rows(x, mask);
    return sum_all(hadamard(probs, Tensor::constant(Matrix::from(
                                       {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}}))));
  });
}

TEST(Autograd, MaskedSoftmaxRowsValues) {
  Matrix mask(2, 2);
  mask.at(0, 0) = mask.at(0, 1) = 1.0;
  mask.at(1, 1) = 1.0;
  const Tensor probs =
      masked_softmax_rows(Tensor::constant(Matrix::from({{1.0, 1.0}, {5.0, -3.0}})), mask);
  EXPECT_NEAR(probs.value().at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(probs.value().at(0, 1), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(probs.value().at(1, 0), 0.0);  // masked despite logit 5
  EXPECT_NEAR(probs.value().at(1, 1), 1.0, 1e-12);
}

TEST(Autograd, MaskedSoftmaxRowsRejectsEmptyRow) {
  const Tensor scores = Tensor::constant(Matrix(2, 2));
  EXPECT_THROW(masked_softmax_rows(scores, Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(masked_softmax_rows(scores, Matrix(3, 3)), std::invalid_argument);
}

// --- fused / batched ops -------------------------------------------------------
// The hot-path ops have hand-fused backward passes (the ReLU gate folded into
// the adjacency scatter, column sums, block means), so each gets its own
// finite-difference check, under both kernel families. The adjacency blocks
// are not symmetric: a backward that applied A instead of A^T would pass on
// a normalized (symmetric) adjacency but fails here.

// Restores the process-global kernel family on scope exit.
class KernelFamilyGuard {
 public:
  KernelFamilyGuard() : kernel_(nn_kernel()) {}
  ~KernelFamilyGuard() { set_nn_kernel(kernel_); }

 private:
  NnKernel kernel_;
};

constexpr NnKernel kFamilies[] = {NnKernel::kReference, NnKernel::kFast};

std::shared_ptr<const BlockAdjacency> asymmetric_blocks(int count, int n, Rng& rng) {
  std::vector<Matrix> blocks;
  for (int g = 0; g < count; ++g) {
    Matrix a(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j || rng.uniform() < 0.4) a.at(i, j) = rng.uniform(0.1, 1.0);
      }
    }
    a.at(0, n - 1) = 0.9;
    a.at(n - 1, 0) = 0.0;
    blocks.push_back(std::move(a));
  }
  return std::make_shared<const BlockAdjacency>(std::move(blocks));
}

TEST(AutogradGradCheck, BlockGcnFused) {
  const KernelFamilyGuard guard;
  Rng rng(11);
  const int count = 3, n = 4, in = 3, out = 5;
  const auto adj = asymmetric_blocks(count, n, rng);
  const Matrix h = random_matrix(count * n, in, rng);
  const Matrix w = random_matrix(in, out, rng);
  const Matrix bias = random_matrix(1, out, rng);
  const Matrix weights = random_matrix(count * n, out, rng);
  for (const NnKernel family : kFamilies) {
    set_nn_kernel(family);
    check_gradient(h, [&](const Tensor& x) {
      return weighted_sum(block_gcn_fused(adj, x, Tensor::constant(w), Tensor::constant(bias)),
                          weights);
    });
    check_gradient(w, [&](const Tensor& x) {
      return weighted_sum(block_gcn_fused(adj, Tensor::constant(h), x, Tensor::constant(bias)),
                          weights);
    });
    check_gradient(bias, [&](const Tensor& x) {
      return weighted_sum(block_gcn_fused(adj, Tensor::constant(h), Tensor::constant(w), x),
                          weights);
    });
  }
}

TEST(AutogradGradCheck, MeanRowsBlocks) {
  Rng rng(13);
  const Matrix a = random_matrix(3 * 4, 5, rng);
  const Matrix weights = random_matrix(3, 5, rng);
  check_gradient(a, [&](const Tensor& x) {
    return weighted_sum(mean_rows_blocks(x, 4), weights);
  });
}

TEST(AutogradGradCheck, AffineActReluAndTanh) {
  const KernelFamilyGuard guard;
  Rng rng(14);
  const Matrix x0 = random_matrix(6, 4, rng);
  const Matrix w0 = random_matrix(4, 3, rng);
  const Matrix b0 = random_matrix(1, 3, rng);
  const Matrix weights = random_matrix(6, 3, rng);
  for (const NnKernel family : kFamilies) {
    set_nn_kernel(family);
    for (const Epilogue act : {Epilogue::kRelu, Epilogue::kTanh}) {
      check_gradient(x0, [&](const Tensor& x) {
        return weighted_sum(
            affine_act(x, Tensor::constant(w0), Tensor::constant(b0), act), weights);
      });
      check_gradient(w0, [&](const Tensor& w) {
        return weighted_sum(
            affine_act(Tensor::constant(x0), w, Tensor::constant(b0), act), weights);
      });
      check_gradient(b0, [&](const Tensor& b) {
        return weighted_sum(
            affine_act(Tensor::constant(x0), Tensor::constant(w0), b, act), weights);
      });
    }
  }
}

TEST(Autograd, DiamondGraphGradient) {
  // loss = sum((x*2) ⊙ (x*3)) = sum(6 x^2) -> grad = 12 x.
  Tensor x = Tensor::parameter(Matrix::from({{1.0, -2.0}}));
  Tensor loss = sum_all(hadamard(scale(x, 2.0), scale(x, 3.0)));
  loss.backward();
  EXPECT_NEAR(x.grad().at(0, 0), 12.0, 1e-12);
  EXPECT_NEAR(x.grad().at(0, 1), -24.0, 1e-12);
}

TEST(Autograd, DeepChainDoesNotOverflowStack) {
  Tensor x = Tensor::parameter(Matrix(1, 1, 1.0));
  Tensor y = x;
  for (int i = 0; i < 5000; ++i) y = scale(y, 1.0);
  sum_all(y).backward();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 1.0);
}

}  // namespace
}  // namespace nptsn
