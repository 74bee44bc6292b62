/**
 * @file
 * Small dense row-major matrix used for BW matrices, connection matrices,
 * DC-relation matrices, and shuffle-size matrices.
 *
 * WANify structures both predicted bandwidths and connection counts as
 * N x N matrices (Section 2.3 of the paper); this type is the common
 * currency between the predictor, the optimizers, and the GDA engine.
 */

#ifndef WANIFY_COMMON_MATRIX_HH
#define WANIFY_COMMON_MATRIX_HH

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <vector>

#include "common/error.hh"

namespace wanify {

template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix initialized to @p init. */
    Matrix(std::size_t rows, std::size_t cols, T init = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, init)
    {}

    /** Square n x n matrix initialized to @p init. */
    static Matrix
    square(std::size_t n, T init = T{})
    {
        return Matrix(n, n, init);
    }

    /** Build from nested initializer lists (rows must be equal length). */
    Matrix(std::initializer_list<std::initializer_list<T>> rows)
    {
        rows_ = rows.size();
        cols_ = rows_ ? rows.begin()->size() : 0;
        data_.reserve(rows_ * cols_);
        for (const auto &r : rows) {
            if (r.size() != cols_)
                fatal("Matrix: ragged initializer list");
            data_.insert(data_.end(), r.begin(), r.end());
        }
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T &
    at(std::size_t r, std::size_t c)
    {
        if (r >= rows_ || c >= cols_)
            panic("Matrix::at out of range");
        return data_[r * cols_ + c];
    }

    const T &
    at(std::size_t r, std::size_t c) const
    {
        if (r >= rows_ || c >= cols_)
            panic("Matrix::at out of range");
        return data_[r * cols_ + c];
    }

    T &operator()(std::size_t r, std::size_t c) { return at(r, c); }
    const T &operator()(std::size_t r, std::size_t c) const
    {
        return at(r, c);
    }

    void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

    /** Apply @p f to every element in place. */
    void
    apply(const std::function<T(T)> &f)
    {
        for (auto &v : data_)
            v = f(v);
    }

    /** Element-wise map to a (possibly different) element type. */
    template <typename U, typename F>
    Matrix<U>
    map(F f) const
    {
        Matrix<U> out(rows_, cols_);
        for (std::size_t r = 0; r < rows_; ++r)
            for (std::size_t c = 0; c < cols_; ++c)
                out(r, c) = f(at(r, c));
        return out;
    }

    /** Sum of all elements. */
    T
    sum() const
    {
        T total{};
        for (const auto &v : data_)
            total += v;
        return total;
    }

    /** Maximum element of row r. */
    T
    rowMax(std::size_t r) const
    {
        if (r >= rows_ || cols_ == 0)
            panic("Matrix::rowMax out of range");
        T best = at(r, 0);
        for (std::size_t c = 1; c < cols_; ++c)
            best = std::max(best, at(r, c));
        return best;
    }

    /** Minimum over the off-diagonal elements (square matrices only). */
    T
    offDiagonalMin() const
    {
        if (rows_ != cols_ || rows_ < 2)
            panic("offDiagonalMin needs a square matrix with n >= 2");
        bool first = true;
        T best{};
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                if (r == c)
                    continue;
                if (first || at(r, c) < best) {
                    best = at(r, c);
                    first = false;
                }
            }
        }
        return best;
    }

    /** Maximum over the off-diagonal elements (square matrices only). */
    T
    offDiagonalMax() const
    {
        if (rows_ != cols_ || rows_ < 2)
            panic("offDiagonalMax needs a square matrix with n >= 2");
        bool first = true;
        T best{};
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                if (r == c)
                    continue;
                if (first || at(r, c) > best) {
                    best = at(r, c);
                    first = false;
                }
            }
        }
        return best;
    }

    /** Mean over the off-diagonal elements (square matrices only). */
    double
    offDiagonalMean() const
    {
        if (rows_ != cols_ || rows_ < 2)
            panic("offDiagonalMean needs a square matrix with n >= 2");
        double total = 0.0;
        std::size_t count = 0;
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                if (r == c)
                    continue;
                total += static_cast<double>(at(r, c));
                ++count;
            }
        }
        return total / static_cast<double>(count);
    }

    bool
    operator==(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

    const std::vector<T> &data() const { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

} // namespace wanify

#endif // WANIFY_COMMON_MATRIX_HH
