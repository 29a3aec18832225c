#include "nn/autograd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace nptsn {

namespace detail {

Matrix& Node::ensure_grad() {
  if (grad.empty() && !value.empty()) grad = Matrix(value.rows(), value.cols());
  return grad;
}

}  // namespace detail

using detail::Node;

Tensor Tensor::constant(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  return Tensor(std::move(node));
}

Tensor Tensor::parameter(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  return Tensor(std::move(node));
}

bool Tensor::requires_grad() const { return node_ != nullptr && node_->requires_grad; }

const Matrix& Tensor::value() const {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->value;
}

Matrix& Tensor::mutable_value() {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->value;
}

const Matrix& Tensor::grad() const {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->grad;
}

Matrix& Tensor::mutable_grad() {
  NPTSN_EXPECT(defined(), "tensor is empty");
  return node_->ensure_grad();
}

void Tensor::zero_grad() {
  NPTSN_EXPECT(defined(), "tensor is empty");
  node_->ensure_grad().fill(0.0);
}

double Tensor::item() const {
  NPTSN_EXPECT(value().rows() == 1 && value().cols() == 1, "item() requires a 1x1 tensor");
  return value().at(0, 0);
}

Tensor Tensor::make_op(Matrix value, std::vector<Tensor> inputs,
                       std::function<void(Node&)> backprop) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  for (const Tensor& t : inputs) {
    NPTSN_EXPECT(t.defined(), "op input tensor is empty");
    node->requires_grad = node->requires_grad || t.node_->requires_grad;
    node->parents.push_back(t.node_);
  }
  if (node->requires_grad) node->backprop = std::move(backprop);
  return Tensor(std::move(node));
}

void Tensor::backward() const {
  NPTSN_EXPECT(defined(), "tensor is empty");
  NPTSN_EXPECT(value().rows() == 1 && value().cols() == 1,
               "backward() requires a scalar loss");
  NPTSN_EXPECT(node_->requires_grad, "loss does not depend on any parameter");

  // Topological order via iterative post-order DFS.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  node_->ensure_grad().at(0, 0) += 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backprop) node->backprop(*node);
  }
}

namespace {

// Adds `delta` into the parent's gradient when the parent participates in
// training (constants skip the work). A parent whose gradient is still
// unallocated takes the delta's storage as 0.0 + delta: bitwise what
// zero-filling a fresh gradient and accumulating into it gives (-0.0 turns
// into +0.0 either way), minus the full-size zero-fill pass.
void add_grad(Node& parent, Matrix&& delta) {
  if (!parent.requires_grad) return;
  if (!parent.grad.empty() || parent.value.empty()) {
    accumulate(parent.ensure_grad(), delta);
    return;
  }
  NPTSN_EXPECT(delta.same_shape(parent.value), "accumulate shape mismatch");
  double* d = delta.data();
  for (int i = 0; i < delta.size(); ++i) d[i] = 0.0 + d[i];
  parent.grad = std::move(delta);
}

void add_grad(Node& parent, const Matrix& delta) {
  if (!parent.requires_grad) return;
  if (!parent.grad.empty() || parent.value.empty()) {
    accumulate(parent.ensure_grad(), delta);
    return;
  }
  add_grad(parent, Matrix(delta));
}

Node& parent(Node& self, std::size_t i) { return *self.parents[i]; }

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  Matrix out = matmul(a.value(), b.value());
  return Tensor::make_op(std::move(out), {a, b}, [](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    if (pa.requires_grad) add_grad(pa, matmul_transposed(self.grad, pb.value));
    if (pb.requires_grad) add_grad(pb, matmul_transposed_a(pa.value, self.grad));
  });
}

Tensor add(const Tensor& a, const Tensor& b) {
  return Tensor::make_op(add(a.value(), b.value()), {a, b}, [](Node& self) {
    add_grad(parent(self, 0), self.grad);
    add_grad(parent(self, 1), self.grad);
  });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return Tensor::make_op(sub(a.value(), b.value()), {a, b}, [](Node& self) {
    add_grad(parent(self, 0), self.grad);
    add_grad(parent(self, 1), scale(self.grad, -1.0));
  });
}

Tensor scale(const Tensor& a, double s) {
  return Tensor::make_op(scale(a.value(), s), {a}, [s](Node& self) {
    add_grad(parent(self, 0), scale(self.grad, s));
  });
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  return Tensor::make_op(hadamard(a.value(), b.value()), {a, b}, [](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    if (pa.requires_grad) add_grad(pa, hadamard(self.grad, pb.value));
    if (pb.requires_grad) add_grad(pb, hadamard(self.grad, pa.value));
  });
}

Tensor relu(const Tensor& a) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::max(0.0, out.data()[i]);
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      if (self.value.data()[i] <= 0.0) delta.data()[i] = 0.0;
    }
    add_grad(parent(self, 0), std::move(delta));
  });
}

Tensor exp_op(const Tensor& a) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::exp(out.data()[i]);
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    add_grad(parent(self, 0), hadamard(self.grad, self.value));
  });
}

Tensor mean_rows(const Tensor& a) {
  const Matrix& v = a.value();
  NPTSN_EXPECT(v.rows() >= 1, "mean_rows requires at least one row");
  Matrix out(1, v.cols());
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) out.at(0, j) += v.at(i, j);
  }
  const double inv = 1.0 / static_cast<double>(v.rows());
  for (int j = 0; j < v.cols(); ++j) out.at(0, j) *= inv;
  return Tensor::make_op(std::move(out), {a}, [inv](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    Matrix delta(pa.value.rows(), pa.value.cols());
    for (int i = 0; i < delta.rows(); ++i) {
      for (int j = 0; j < delta.cols(); ++j) delta.at(i, j) = self.grad.at(0, j) * inv;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor sum_all(const Tensor& a) {
  Matrix out(1, 1, a.value().sum());
  return Tensor::make_op(std::move(out), {a}, [](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    add_grad(pa, Matrix(pa.value.rows(), pa.value.cols(), self.grad.at(0, 0)));
  });
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  const Matrix& va = a.value();
  const Matrix& vb = b.value();
  NPTSN_EXPECT(va.rows() == vb.rows(), "concat_cols row mismatch");
  Matrix out(va.rows(), va.cols() + vb.cols());
  for (int i = 0; i < va.rows(); ++i) {
    for (int j = 0; j < va.cols(); ++j) out.at(i, j) = va.at(i, j);
    for (int j = 0; j < vb.cols(); ++j) out.at(i, va.cols() + j) = vb.at(i, j);
  }
  const int split = va.cols();
  return Tensor::make_op(std::move(out), {a, b}, [split](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    if (pa.requires_grad) {
      Matrix da(self.grad.rows(), split);
      for (int i = 0; i < da.rows(); ++i) {
        for (int j = 0; j < split; ++j) da.at(i, j) = self.grad.at(i, j);
      }
      add_grad(pa, std::move(da));
    }
    if (pb.requires_grad) {
      Matrix db(self.grad.rows(), self.grad.cols() - split);
      for (int i = 0; i < db.rows(); ++i) {
        for (int j = 0; j < db.cols(); ++j) db.at(i, j) = self.grad.at(i, split + j);
      }
      add_grad(pb, std::move(db));
    }
  });
}

Tensor pick_cols(const Tensor& a, const std::vector<int>& cols) {
  const Matrix& v = a.value();
  NPTSN_EXPECT(static_cast<int>(cols.size()) == v.rows(), "pick_cols needs one column per row");
  Matrix out(v.rows(), 1);
  for (int r = 0; r < v.rows(); ++r) {
    const int c = cols[static_cast<std::size_t>(r)];
    NPTSN_EXPECT(c >= 0 && c < v.cols(), "pick_cols column out of range");
    out.at(r, 0) = v.at(r, c);
  }
  return Tensor::make_op(std::move(out), {a}, [cols](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    Matrix delta(pa.value.rows(), pa.value.cols());
    for (int r = 0; r < delta.rows(); ++r) {
      delta.at(r, cols[static_cast<std::size_t>(r)]) = self.grad.at(r, 0);
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor clamp(const Tensor& a, double lo, double hi) {
  NPTSN_EXPECT(lo <= hi, "clamp requires lo <= hi");
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::clamp(out.data()[i], lo, hi);
  return Tensor::make_op(std::move(out), {a}, [lo, hi](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      const double x = pa.value.data()[i];
      if (x < lo || x > hi) delta.data()[i] = 0.0;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor min2(const Tensor& a, const Tensor& b) {
  NPTSN_EXPECT(a.value().same_shape(b.value()), "min2 shape mismatch");
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::min(out.data()[i], b.value().data()[i]);
  return Tensor::make_op(std::move(out), {a, b}, [](Node& self) {
    Node& pa = parent(self, 0);
    Node& pb = parent(self, 1);
    Matrix da(self.grad.rows(), self.grad.cols());
    Matrix db(self.grad.rows(), self.grad.cols());
    for (int i = 0; i < self.grad.size(); ++i) {
      if (pa.value.data()[i] <= pb.value.data()[i]) {
        da.data()[i] = self.grad.data()[i];
      } else {
        db.data()[i] = self.grad.data()[i];
      }
    }
    if (pa.requires_grad) add_grad(pa, std::move(da));
    if (pb.requires_grad) add_grad(pb, std::move(db));
  });
}

Tensor masked_log_softmax_rows(const Tensor& logits, const Matrix& mask) {
  const Matrix& x = logits.value();
  NPTSN_EXPECT(x.same_shape(mask), "logits/mask shape mismatch");
  constexpr double kMaskedLogProb = -1e30;
  Matrix out(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r) {
    // Stable masked log-softmax of row r.
    double max_logit = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask.at(r, j) != 0.0) {
        max_logit = std::max(max_logit, x.at(r, j));
        any = true;
      }
    }
    NPTSN_EXPECT(any, "masked_log_softmax_rows: all actions masked in row " + std::to_string(r));
    double denom = 0.0;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask.at(r, j) != 0.0) denom += std::exp(x.at(r, j) - max_logit);
    }
    const double log_denom = std::log(denom) + max_logit;
    for (int j = 0; j < x.cols(); ++j) {
      out.at(r, j) = mask.at(r, j) != 0.0 ? x.at(r, j) - log_denom : kMaskedLogProb;
    }
  }
  const Matrix mask_copy = mask;
  return Tensor::make_op(std::move(out), {logits}, [mask_copy](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    // Per row: d logp_j / d x_i = delta_ij - p_i (over unmasked entries).
    Matrix delta(self.value.rows(), self.value.cols());
    for (int r = 0; r < delta.rows(); ++r) {
      double grad_sum = 0.0;
      for (int j = 0; j < delta.cols(); ++j) {
        if (mask_copy.at(r, j) != 0.0) grad_sum += self.grad.at(r, j);
      }
      for (int i = 0; i < delta.cols(); ++i) {
        if (mask_copy.at(r, i) == 0.0) continue;
        const double p_i = std::exp(self.value.at(r, i));
        delta.at(r, i) = self.grad.at(r, i) - p_i * grad_sum;
      }
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor transpose_op(const Tensor& a) {
  return Tensor::make_op(transpose(a.value()), {a}, [](Node& self) {
    add_grad(parent(self, 0), transpose(self.grad));
  });
}

namespace {

// Incoming gradient gated through the fused activation's derivative,
// evaluated at the op's OUTPUT (relu zeroes where the output is <= 0, as
// the standalone relu op does; tanh scales by 1 - y^2).
Matrix epilogue_delta(const Matrix& grad, const Matrix& out, Epilogue act) {
  if (act == Epilogue::kNone) return grad;
  Matrix delta = grad;
  if (act == Epilogue::kRelu) {
    for (int i = 0; i < delta.size(); ++i) {
      if (out.data()[i] <= 0.0) delta.data()[i] = 0.0;
    }
  } else {
    for (int i = 0; i < delta.size(); ++i) {
      const double y = out.data()[i];
      delta.data()[i] *= (1.0 - y * y);
    }
  }
  return delta;
}

// Column sums of grad accumulated directly into a 1 x C parent gradient,
// ascending rows per column (raw pointers: .at() bounds checks stay on in
// release builds and this walks a full-size delta).
void add_grad_col_sums(Node& parent_node, const Matrix& grad) {
  if (!parent_node.requires_grad) return;
  Matrix& g = parent_node.ensure_grad();
  NPTSN_EXPECT(g.rows() == 1 && g.cols() == grad.cols(), "bias gradient shape mismatch");
  const int cols = grad.cols();
  double* pg = g.data();
  for (int i = 0; i < grad.rows(); ++i) {
    const double* row = grad.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) pg[j] += row[j];
  }
}

}  // namespace

Tensor affine_act(const Tensor& x, const Tensor& w, const Tensor& bias, Epilogue act) {
  Matrix out = affine(x.value(), w.value(), &bias.value(), act);
  return Tensor::make_op(std::move(out), {x, w, bias}, [act](Node& self) {
    Node& px = parent(self, 0);
    Node& pw = parent(self, 1);
    Node& pb = parent(self, 2);
    const Matrix delta = epilogue_delta(self.grad, self.value, act);
    if (px.requires_grad) add_grad(px, matmul_transposed(delta, pw.value));
    if (pw.requires_grad) add_grad(pw, matmul_transposed_a(px.value, delta));
    add_grad_col_sums(pb, delta);
  });
}

Tensor block_gcn_fused(std::shared_ptr<const BlockAdjacency> a_hats,
                       const Tensor& h, const Tensor& w, const Tensor& bias) {
  NPTSN_EXPECT(a_hats != nullptr, "block_gcn_fused needs adjacencies");
  Matrix out = block_diag_gcn(*a_hats, h.value(), w.value(), bias.value());
  return Tensor::make_op(std::move(out), {h, w, bias}, [a_hats](Node& self) {
    Node& ph = parent(self, 0);
    Node& pw = parent(self, 1);
    Node& pb = parent(self, 2);
    // The forward chain in reverse: relu mask, back through the adjacency
    // blocks, then the affine gradients. The mask
    // is fused into the adjacency backward, so no gated full-size copy of
    // the incoming gradient exists.
    const Matrix delta_z = block_diag_matmul_tn(*a_hats, self.grad, &self.value);
    if (ph.requires_grad) add_grad(ph, matmul_transposed(delta_z, pw.value));
    if (pw.requires_grad) add_grad(pw, matmul_transposed_a(ph.value, delta_z));
    add_grad_col_sums(pb, delta_z);
  });
}

Tensor mean_rows_blocks(const Tensor& a, int block_rows) {
  const Matrix& v = a.value();
  NPTSN_EXPECT(block_rows >= 1, "mean_rows_blocks needs positive block size");
  NPTSN_EXPECT(v.rows() % block_rows == 0, "rows are not a whole number of blocks");
  const int blocks = v.rows() / block_rows;
  const double inv = 1.0 / static_cast<double>(block_rows);
  const int cols = v.cols();
  Matrix out(blocks, cols);
  // Raw-pointer loops: .at() bounds checks stay on in release builds and
  // this readout runs once per batched forward over the whole stacked
  // matrix. Summation order (ascending i per column) is unchanged.
  for (int g = 0; g < blocks; ++g) {
    double* orow = out.data() + static_cast<std::size_t>(g) * cols;
    for (int i = 0; i < block_rows; ++i) {
      const double* vrow =
          v.data() + (static_cast<std::size_t>(g) * block_rows + i) * cols;
      for (int j = 0; j < cols; ++j) orow[j] += vrow[j];
    }
    for (int j = 0; j < cols; ++j) orow[j] *= inv;
  }
  return Tensor::make_op(std::move(out), {a}, [block_rows, inv](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    const int cols = pa.value.cols();
    Matrix delta = Matrix::uninitialized(pa.value.rows(), cols);
    for (int i = 0; i < delta.rows(); ++i) {
      const double* grow =
          self.grad.data() + static_cast<std::size_t>(i / block_rows) * cols;
      double* drow = delta.data() + static_cast<std::size_t>(i) * cols;
      for (int j = 0; j < cols; ++j) drow[j] = grow[j] * inv;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor stack_rows(const std::vector<Tensor>& rows) {
  NPTSN_EXPECT(!rows.empty(), "stack_rows of zero tensors");
  const int cols = rows.front().value().cols();
  Matrix out(static_cast<int>(rows.size()), cols);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Matrix& v = rows[i].value();
    NPTSN_EXPECT(v.rows() == 1 && v.cols() == cols, "stack_rows shape mismatch");
    for (int j = 0; j < cols; ++j) out.at(static_cast<int>(i), j) = v.at(0, j);
  }
  return Tensor::make_op(std::move(out), rows, [](Node& self) {
    for (std::size_t i = 0; i < self.parents.size(); ++i) {
      Node& p = *self.parents[i];
      if (!p.requires_grad) continue;
      Matrix& g = p.ensure_grad();
      for (int j = 0; j < self.grad.cols(); ++j) {
        g.at(0, j) += self.grad.at(static_cast<int>(i), j);
      }
    }
  });
}

Tensor leaky_relu(const Tensor& a, double negative_slope) {
  Matrix out = a.value();
  for (int i = 0; i < out.size(); ++i) {
    if (out.data()[i] < 0.0) out.data()[i] *= negative_slope;
  }
  return Tensor::make_op(std::move(out), {a}, [negative_slope](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    Matrix delta = self.grad;
    for (int i = 0; i < delta.size(); ++i) {
      if (pa.value.data()[i] < 0.0) delta.data()[i] *= negative_slope;
    }
    add_grad(pa, std::move(delta));
  });
}

Tensor masked_softmax_rows(const Tensor& scores, const Matrix& mask) {
  const Matrix& x = scores.value();
  NPTSN_EXPECT(x.same_shape(mask), "scores/mask shape mismatch");
  Matrix out(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    double max_score = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask.at(i, j) != 0.0) {
        max_score = std::max(max_score, x.at(i, j));
        any = true;
      }
    }
    NPTSN_EXPECT(any, "masked_softmax_rows: fully masked row " + std::to_string(i));
    double denom = 0.0;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask.at(i, j) != 0.0) {
        out.at(i, j) = std::exp(x.at(i, j) - max_score);
        denom += out.at(i, j);
      }
    }
    for (int j = 0; j < x.cols(); ++j) out.at(i, j) /= denom;
  }
  const Matrix mask_copy = mask;
  return Tensor::make_op(std::move(out), {scores}, [mask_copy](Node& self) {
    Node& pa = parent(self, 0);
    if (!pa.requires_grad) return;
    // Per row: d y_j / d x_i = y_j (delta_ij - y_i) over unmasked entries.
    Matrix delta(self.value.rows(), self.value.cols());
    for (int r = 0; r < self.value.rows(); ++r) {
      double dot = 0.0;
      for (int j = 0; j < self.value.cols(); ++j) {
        if (mask_copy.at(r, j) != 0.0) dot += self.grad.at(r, j) * self.value.at(r, j);
      }
      for (int i = 0; i < self.value.cols(); ++i) {
        if (mask_copy.at(r, i) == 0.0) continue;
        delta.at(r, i) = self.value.at(r, i) * (self.grad.at(r, i) - dot);
      }
    }
    add_grad(pa, std::move(delta));
  });
}

std::pair<bool, double> find_non_finite_value(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) {
    const Matrix& m = p.value();
    for (int i = 0; i < m.size(); ++i) {
      const double x = m.data()[i];
      if (!std::isfinite(x)) return {true, x};
    }
  }
  return {false, 0.0};
}

GradientScan scan_gradients(const std::vector<Tensor>& params) {
  GradientScan scan;
  for (const Tensor& p : params) {
    // grad() is the raw (possibly never-allocated, hence empty) gradient
    // matrix; an empty gradient contributes zero to the norm.
    const Matrix& g = p.grad();
    for (int i = 0; i < g.size(); ++i) {
      const double x = g.data()[i];
      if (!std::isfinite(x)) {
        scan.non_finite = true;
        scan.bad_value = x;
        return scan;
      }
      scan.squared_norm += x * x;
    }
  }
  return scan;
}

}  // namespace nptsn
