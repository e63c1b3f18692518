// Compressed-sparse-row matrix and a triplet-based builder, used by the TCAD
// field solver and the MNA engine for large linear systems.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace cnti::numerics {

/// CSR matrix of doubles. Immutable once built (build via SparseBuilder).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  SparseMatrix(std::size_t rows, std::size_t cols,
               std::vector<std::size_t> row_ptr, std::vector<std::size_t> col,
               std::vector<double> val)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_(std::move(col)),
        val_(std::move(val)) {
    CNTI_EXPECTS(row_ptr_.size() == rows_ + 1, "bad row_ptr length");
    CNTI_EXPECTS(col_.size() == val_.size(), "col/val length mismatch");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }

  /// y = A x.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const {
    CNTI_EXPECTS(x.size() == cols_, "matvec size mismatch");
    y.assign(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      double acc = 0.0;
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        acc += val_[k] * x[col_[k]];
      }
      y[i] = acc;
    }
  }

  std::vector<double> operator*(const std::vector<double>& x) const {
    std::vector<double> y;
    multiply(x, y);
    return y;
  }

  /// Diagonal entries (zero when absent) — Jacobi preconditioner input.
  std::vector<double> diagonal() const {
    std::vector<double> d(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        if (col_[k] == i) d[i] = val_[k];
      }
    }
    return d;
  }

  double at(std::size_t r, std::size_t c) const {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_[k] == c) return val_[k];
    }
    return 0.0;
  }

  /// Raw CSR arrays — consumed by direct solvers (SparseLu) that need the
  /// pattern, and by pattern-frozen assemblers that rewrite values in place.
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_indices() const { return col_; }
  const std::vector<double>& values() const { return val_; }

  /// Mutable numeric values. The sparsity pattern stays immutable; only the
  /// stored coefficients may change (MNA re-stamping, refactorization).
  std::vector<double>& values() { return val_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

/// Accumulates (row, col, value) triplets; duplicate entries are summed on
/// build (natural for FD/MNA stamping).
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  void add(std::size_t r, std::size_t c, double v) {
    CNTI_EXPECTS(r < rows_ && c < cols_, "triplet out of range");
    triplets_.push_back({r, c, v});
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  SparseMatrix build() const {
    std::vector<Triplet> t = triplets_;
    std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    std::vector<std::size_t> row_ptr(rows_ + 1, 0);
    std::vector<std::size_t> col;
    std::vector<double> val;
    col.reserve(t.size());
    val.reserve(t.size());
    for (std::size_t i = 0; i < t.size();) {
      std::size_t j = i;
      double acc = 0.0;
      while (j < t.size() && t[j].row == t[i].row && t[j].col == t[i].col) {
        acc += t[j].value;
        ++j;
      }
      col.push_back(t[i].col);
      val.push_back(acc);
      ++row_ptr[t[i].row + 1];
      i = j;
    }
    for (std::size_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];
    return SparseMatrix(rows_, cols_, std::move(row_ptr), std::move(col),
                        std::move(val));
  }

 private:
  struct Triplet {
    std::size_t row;
    std::size_t col;
    double value;
  };

  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

/// Pattern-frozen CSR assembler for repeated stamping of the same element
/// stream (MNA Jacobians across Newton iterations and timesteps).
///
/// The first begin()/add()/end() pass records every (row, col) stamp, builds
/// the CSR pattern once and maps each stamp in the stream to its value slot.
/// Every later pass must replay the *same* stamp stream (same length, same
/// coordinates in the same order — true for MNA, whose stamps come from
/// fixed loops over the element lists); add() then becomes a single indexed
/// accumulate and no sorting, allocation or pattern work happens again.
class CsrAssembler {
 public:
  explicit CsrAssembler(std::size_t n) : n_(n) {}

  std::size_t size() const { return n_; }
  bool frozen() const { return frozen_; }

  /// Starts an assembly pass (recording on the first, replay afterwards).
  void begin() {
    CNTI_EXPECTS(!in_pass_, "CsrAssembler: begin() without end()");
    in_pass_ = true;
    cursor_ = 0;
    if (frozen_) std::fill(matrix_.values().begin(), matrix_.values().end(), 0.0);
  }

  void add(std::size_t r, std::size_t c, double v) {
    if (frozen_) {
      CNTI_EXPECTS(cursor_ < slots_.size(),
                   "CsrAssembler: stamp stream longer than recorded pattern");
      const Stamp& s = slots_[cursor_++];
      CNTI_EXPECTS(s.row == r && s.col == c,
                   "CsrAssembler: stamp stream diverged from recorded pattern");
      matrix_.values()[s.slot] += v;
      return;
    }
    CNTI_EXPECTS(r < n_ && c < n_, "CsrAssembler: stamp out of range");
    slots_.push_back({r, c, 0});
    recorded_values_.push_back(v);
  }

  /// Finishes the pass; the first call freezes the pattern.
  const SparseMatrix& end() {
    CNTI_EXPECTS(in_pass_, "CsrAssembler: end() without begin()");
    in_pass_ = false;
    if (frozen_) {
      CNTI_EXPECTS(cursor_ == slots_.size(),
                   "CsrAssembler: stamp stream shorter than recorded pattern");
      return matrix_;
    }
    freeze();
    return matrix_;
  }

  /// The assembled matrix of the last completed pass.
  const SparseMatrix& matrix() const { return matrix_; }

 private:
  struct Stamp {
    std::size_t row;
    std::size_t col;
    std::size_t slot;
  };

  void freeze() {
    // Unique sorted (row, col) pairs define the CSR pattern; every recorded
    // stamp gets the slot of its pair. The sort is stable so duplicate
    // stamps sum in stream order, bit for bit as every replay sums them.
    std::vector<std::size_t> order(slots_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return slots_[a].row != slots_[b].row
                                  ? slots_[a].row < slots_[b].row
                                  : slots_[a].col < slots_[b].col;
                     });
    std::vector<std::size_t> row_ptr(n_ + 1, 0);
    std::vector<std::size_t> col;
    std::vector<double> val;
    for (std::size_t i = 0; i < order.size();) {
      const std::size_t r = slots_[order[i]].row;
      const std::size_t c = slots_[order[i]].col;
      const std::size_t slot = col.size();
      col.push_back(c);
      val.push_back(0.0);
      ++row_ptr[r + 1];
      double acc = 0.0;
      while (i < order.size() && slots_[order[i]].row == r &&
             slots_[order[i]].col == c) {
        slots_[order[i]].slot = slot;
        acc += recorded_values_[order[i]];
        ++i;
      }
      val[slot] = acc;
    }
    for (std::size_t r = 0; r < n_; ++r) row_ptr[r + 1] += row_ptr[r];
    matrix_ = SparseMatrix(n_, n_, std::move(row_ptr), std::move(col),
                           std::move(val));
    recorded_values_.clear();
    recorded_values_.shrink_to_fit();
    frozen_ = true;
  }

  std::size_t n_;
  bool frozen_ = false;
  bool in_pass_ = false;
  std::size_t cursor_ = 0;
  std::vector<Stamp> slots_;
  std::vector<double> recorded_values_;  // recording pass only
  SparseMatrix matrix_;
};

}  // namespace cnti::numerics
