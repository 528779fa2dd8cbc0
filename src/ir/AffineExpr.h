//===- AffineExpr.h - Affine expression trees -------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable affine expressions over loop dimensions and symbols, mirroring
/// mlir::AffineExpr. These are the building blocks of the indexing maps on
/// `linalg.generic` (paper Fig. 2a) and of the AXI4MLIR trait attributes
/// `accel_dim` and `permutation_map` (paper Fig. 6a).
///
/// Supported forms: d_i, s_i, constants, add, mul, mod, floordiv — enough to
/// express matmul and strided-convolution indexing (e.g. `d2*2 + d5`).
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_IR_AFFINEEXPR_H
#define AXI4MLIR_IR_AFFINEEXPR_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace axi4mlir {

namespace detail {
struct AffineExprStorage;
} // namespace detail

/// A value-semantic handle to an immutable affine expression tree.
class AffineExpr {
public:
  enum class Kind { Constant, Dim, Symbol, Add, Mul, Mod, FloorDiv };

  AffineExpr() = default;

  static AffineExpr getConstant(int64_t Value);
  static AffineExpr getDim(unsigned Position);
  static AffineExpr getSymbol(unsigned Position);
  static AffineExpr getBinary(Kind ExprKind, AffineExpr LHS, AffineExpr RHS);

  Kind getKind() const;
  explicit operator bool() const { return Impl != nullptr; }

  /// For Constant expressions: the constant value.
  int64_t getConstantValue() const;
  /// For Dim/Symbol expressions: the position.
  unsigned getPosition() const;
  /// For binary expressions: the operands.
  AffineExpr getLHS() const;
  AffineExpr getRHS() const;

  bool isConstant() const { return getKind() == Kind::Constant; }
  bool isDim() const { return getKind() == Kind::Dim; }
  bool isSymbol() const { return getKind() == Kind::Symbol; }

  /// Structural equality.
  bool operator==(const AffineExpr &Other) const;
  bool operator!=(const AffineExpr &Other) const { return !(*this == Other); }

  /// Evaluates the expression with the given dimension and symbol values.
  int64_t eval(const std::vector<int64_t> &Dims,
               const std::vector<int64_t> &Symbols = {}) const;

  /// Inserts every dimension position referenced by this expression into
  /// \p Dims. Used by the opcode-flow placement pass to find the deepest
  /// loop an operand's tile depends on (DESIGN.md Sec. 5.1).
  void collectDimPositions(std::set<unsigned> &Dims) const;

  /// Returns the expression with dimension positions remapped:
  /// d_i -> d_{Mapping[i]}. Mapping must cover all referenced dims.
  AffineExpr replaceDims(const std::vector<unsigned> &Mapping) const;

  void print(std::ostream &OS) const;
  std::string str() const;

private:
  explicit AffineExpr(std::shared_ptr<const detail::AffineExprStorage> Impl)
      : Impl(std::move(Impl)) {}

  std::shared_ptr<const detail::AffineExprStorage> Impl;
};

/// Convenience builders mirroring mlir::getAffineDimExpr and friends.
inline AffineExpr getAffineDimExpr(unsigned Position) {
  return AffineExpr::getDim(Position);
}
inline AffineExpr getAffineSymbolExpr(unsigned Position) {
  return AffineExpr::getSymbol(Position);
}
inline AffineExpr getAffineConstantExpr(int64_t Value) {
  return AffineExpr::getConstant(Value);
}

AffineExpr operator+(AffineExpr LHS, AffineExpr RHS);
AffineExpr operator*(AffineExpr LHS, int64_t RHS);

inline std::ostream &operator<<(std::ostream &OS, const AffineExpr &Expr) {
  Expr.print(OS);
  return OS;
}

} // namespace axi4mlir

#endif // AXI4MLIR_IR_AFFINEEXPR_H
