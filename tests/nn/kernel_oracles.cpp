// Frozen copies of the earlier fast backward kernels. Built with the same
// compile options as src/nn/kernels.cpp (tests/CMakeLists.txt), so fmadd
// and the vector lanes round exactly as the live kernels do. Comments that
// name affine_* kernels refer to src/nn/kernels.cpp.
#include "nn/kernel_oracles.hpp"

#include <algorithm>
#include <cstddef>

namespace nptsn::oracle {
namespace {

constexpr int kMr = 4;
constexpr int kNr = 32;
constexpr int kNrDot = 8;

#if defined(__AVX512F__)
typedef double vnd __attribute__((vector_size(64)));
constexpr int kLanes = 8;
#else
typedef double vnd __attribute__((vector_size(32)));
constexpr int kLanes = 4;
#endif
constexpr int kNrReg = 2 * kLanes;

inline vnd loadv(const double* p) {
  vnd v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void storev(double* p, vnd v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline vnd broadcastv(double s) {
  vnd v;
  for (int l = 0; l < kLanes; ++l) v[l] = s;
  return v;
}

inline double fmadd(double a, double b, double acc) {
#if defined(__FMA__)
  return __builtin_fma(a, b, acc);
#else
  return a * b + acc;
#endif
}

inline vnd fmaddv(vnd a, vnd b, vnd acc) {
#if defined(__FMA__)
  vnd r;
  for (int l = 0; l < kLanes; ++l) r[l] = __builtin_fma(a[l], b[l], acc[l]);
  return r;
#else
  return a * b + acc;
#endif
}

// Rows [i_begin, i_end) of out = a * b^T (b row-major N x K).
void matmul_nt_rows(const Matrix& a, const Matrix& b, Matrix& out, int i_begin,
                    int i_end) {
  const int cols_k = a.cols();
  const int rows_n = b.rows();
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (int i0 = i_begin; i0 < i_end; i0 += kMr) {
    const int mi = std::min(kMr, i_end - i0);
    for (int j0 = 0; j0 < rows_n; j0 += kNrDot) {
      const int nj = std::min(kNrDot, rows_n - j0);
      double acc[kMr][kNrDot];
      for (int r = 0; r < mi; ++r) {
        for (int j = 0; j < nj; ++j) acc[r][j] = 0.0;
      }
      for (int k = 0; k < cols_k; ++k) {
        double avals[kMr];
        double bvals[kNrDot];
        for (int r = 0; r < mi; ++r) {
          avals[r] = pa[static_cast<std::size_t>(i0 + r) * cols_k + k];
        }
        for (int j = 0; j < nj; ++j) {
          bvals[j] = pb[static_cast<std::size_t>(j0 + j) * cols_k + k];
        }
        for (int r = 0; r < mi; ++r) {
          for (int j = 0; j < nj; ++j) acc[r][j] = fmadd(avals[r], bvals[j], acc[r][j]);
        }
      }
      for (int r = 0; r < mi; ++r) {
        double* orow = po + static_cast<std::size_t>(i0 + r) * rows_n + j0;
        for (int j = 0; j < nj; ++j) orow[j] = acc[r][j];
      }
    }
  }
}

// Full-tile micro-kernel for out = a^T * b; same registerization and
// bit-preservation argument as affine_microkernel.
template <int MR>
void tn_microkernel(const double* pa, const double* pb, int rows_k, int cols_m,
                    int cols_n, int i0, int j0, double* po) {
  vnd acc[MR][2];
  for (int r = 0; r < MR; ++r) acc[r][0] = acc[r][1] = broadcastv(0.0);
  for (int k = 0; k < rows_k; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m + i0;
    const double* brow = pb + static_cast<std::size_t>(k) * cols_n + j0;
    const vnd b0 = loadv(brow);
    const vnd b1 = loadv(brow + kLanes);
    for (int r = 0; r < MR; ++r) {
      const vnd a = broadcastv(arow[r]);
      acc[r][0] = fmaddv(a, b0, acc[r][0]);
      acc[r][1] = fmaddv(a, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
    storev(orow, acc[r][0]);
    storev(orow + kLanes, acc[r][1]);
  }
}

// Single-vector-wide column-remainder variant (see affine_microkernel_v1).
template <int MR>
void tn_microkernel_v1(const double* pa, const double* pb, int rows_k, int cols_m,
                       int cols_n, int i0, int j0, double* po) {
  vnd acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = broadcastv(0.0);
  for (int k = 0; k < rows_k; ++k) {
    const double* arow = pa + static_cast<std::size_t>(k) * cols_m + i0;
    const vnd b0 = loadv(pb + static_cast<std::size_t>(k) * cols_n + j0);
    for (int r = 0; r < MR; ++r) {
      acc[r] = fmaddv(broadcastv(arow[r]), b0, acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    storev(po + static_cast<std::size_t>(i0 + r) * cols_n + j0, acc[r]);
  }
}

// Rows [i_begin, i_end) of out = a^T * b (a row-major K x M; out M x N).
// Raw-pointer interface for the same reason as affine_rows.
void matmul_tn_rows(const double* pa, int rows_k, int cols_m, const double* pb,
                    int cols_n, double* po, int i_begin, int i_end) {
  for (int i0 = i_begin; i0 < i_end; i0 += kMr) {
    const int mi = std::min(kMr, i_end - i0);
    int j0_reg = 0;
    switch (mi) {
      case 4:
        for (; j0_reg + kNrReg <= cols_n; j0_reg += kNrReg)
          tn_microkernel<4>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        for (; j0_reg + kLanes <= cols_n; j0_reg += kLanes)
          tn_microkernel_v1<4>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        break;
      case 3:
        for (; j0_reg + kNrReg <= cols_n; j0_reg += kNrReg)
          tn_microkernel<3>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        for (; j0_reg + kLanes <= cols_n; j0_reg += kLanes)
          tn_microkernel_v1<3>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        break;
      case 2:
        for (; j0_reg + kNrReg <= cols_n; j0_reg += kNrReg)
          tn_microkernel<2>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        for (; j0_reg + kLanes <= cols_n; j0_reg += kLanes)
          tn_microkernel_v1<2>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        break;
      case 1:
        for (; j0_reg + kNrReg <= cols_n; j0_reg += kNrReg)
          tn_microkernel<1>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        for (; j0_reg + kLanes <= cols_n; j0_reg += kLanes)
          tn_microkernel_v1<1>(pa, pb, rows_k, cols_m, cols_n, i0, j0_reg, po);
        break;
      default:
        break;
    }
    for (int j0 = j0_reg; j0 < cols_n; j0 += kNr) {
      const int nj = std::min(kNr, cols_n - j0);
      double acc[kMr][kNr];
      for (int r = 0; r < mi; ++r) {
        for (int j = 0; j < nj; ++j) acc[r][j] = 0.0;
      }
      for (int k = 0; k < rows_k; ++k) {
        const double* arow = pa + static_cast<std::size_t>(k) * cols_m + i0;
        const double* brow = pb + static_cast<std::size_t>(k) * cols_n + j0;
        for (int r = 0; r < mi; ++r) {
          const double ark = arow[r];
          if (ark == 0.0) continue;  // zero-skip; bit-preserving (see affine_rows)
          double* accr = acc[r];
          for (int j = 0; j < nj; ++j) accr[j] = fmadd(ark, brow[j], accr[j]);
        }
      }
      for (int r = 0; r < mi; ++r) {
        double* orow = po + static_cast<std::size_t>(i0 + r) * cols_n + j0;
        for (int j = 0; j < nj; ++j) orow[j] = acc[r][j];
      }
    }
  }
}

}  // namespace

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out = Matrix::uninitialized(a.cols(), b.cols());
  matmul_tn_rows(a.data(), a.rows(), a.cols(), b.data(), b.cols(), out.data(), 0,
                 a.cols());
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out = Matrix::uninitialized(a.rows(), b.rows());
  matmul_nt_rows(a, b, out, 0, a.rows());
  return out;
}

Matrix block_matmul_tn(const BlockAdjacency& adj, const Matrix& delta) {
  const int n = adj.block_size();
  const int cols_n = delta.cols();
  Matrix out = Matrix::uninitialized(delta.rows(), cols_n);
  for (int g = 0; g < adj.count(); ++g) {
    matmul_tn_rows(adj.blocks()[static_cast<std::size_t>(g)].data(), n, n,
                   delta.data() + static_cast<std::size_t>(g) * n * cols_n, cols_n,
                   out.data() + static_cast<std::size_t>(g) * n * cols_n, 0, n);
  }
  return out;
}

}  // namespace nptsn::oracle
