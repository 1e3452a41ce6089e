#pragma once
// Dense linear algebra for the MNA solver.
//
// AMS behavioral circuits are tens of unknowns; a dense LU with partial
// pivoting beats any sparse machinery at this size and is trivially robust.
// At that size the factorization is not what a transient run costs: the
// Fig. 8 PLL has 4 unknowns, and its time goes to the number of accepted
// steps (one stamp/solve/probe round each), not to the LU inside a step.

#include <vector>

namespace gfi::analog {

/// Row-major dense square matrix.
class DenseMatrix {
public:
    DenseMatrix() = default;
    explicit DenseMatrix(int n) { resize(n); }

    /// Resizes to n x n and zero-fills.
    void resize(int n)
    {
        n_ = n;
        data_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
    }

    /// Zero-fills, keeping the dimension.
    void clear() { data_.assign(data_.size(), 0.0); }

    /// Dimension.
    [[nodiscard]] int size() const noexcept { return n_; }

    /// Element access.
    [[nodiscard]] double& at(int r, int c)
    {
        return data_[static_cast<std::size_t>(r) * n_ + static_cast<std::size_t>(c)];
    }
    [[nodiscard]] double at(int r, int c) const
    {
        return data_[static_cast<std::size_t>(r) * n_ + static_cast<std::size_t>(c)];
    }

private:
    int n_ = 0;
    std::vector<double> data_;
};

/// Solves A x = b in place (A is destroyed, b receives x) by LU decomposition
/// with partial pivoting. Returns false if A is numerically singular.
bool luSolveInPlace(DenseMatrix& A, std::vector<double>& b);

} // namespace gfi::analog
