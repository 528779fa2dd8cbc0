//===- AffineExpr.cpp - Affine expression implementation ------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/AffineExpr.h"

#include <cassert>
#include <sstream>

using namespace axi4mlir;

namespace axi4mlir {
namespace detail {
struct AffineExprStorage {
  AffineExpr::Kind Kind;
  int64_t Constant = 0;
  unsigned Position = 0;
  AffineExpr LHS;
  AffineExpr RHS;
};
} // namespace detail
} // namespace axi4mlir

AffineExpr AffineExpr::getConstant(int64_t Value) {
  auto Storage = std::make_shared<detail::AffineExprStorage>();
  Storage->Kind = Kind::Constant;
  Storage->Constant = Value;
  return AffineExpr(std::move(Storage));
}

AffineExpr AffineExpr::getDim(unsigned Position) {
  auto Storage = std::make_shared<detail::AffineExprStorage>();
  Storage->Kind = Kind::Dim;
  Storage->Position = Position;
  return AffineExpr(std::move(Storage));
}

AffineExpr AffineExpr::getSymbol(unsigned Position) {
  auto Storage = std::make_shared<detail::AffineExprStorage>();
  Storage->Kind = Kind::Symbol;
  Storage->Position = Position;
  return AffineExpr(std::move(Storage));
}

AffineExpr AffineExpr::getBinary(Kind ExprKind, AffineExpr LHS,
                                 AffineExpr RHS) {
  assert(LHS && RHS && "binary affine expr requires both operands");
  auto Storage = std::make_shared<detail::AffineExprStorage>();
  Storage->Kind = ExprKind;
  Storage->LHS = LHS;
  Storage->RHS = RHS;
  return AffineExpr(std::move(Storage));
}

AffineExpr::Kind AffineExpr::getKind() const {
  assert(Impl && "querying a null AffineExpr");
  return Impl->Kind;
}

int64_t AffineExpr::getConstantValue() const {
  assert(getKind() == Kind::Constant);
  return Impl->Constant;
}

unsigned AffineExpr::getPosition() const {
  assert(getKind() == Kind::Dim || getKind() == Kind::Symbol);
  return Impl->Position;
}

AffineExpr AffineExpr::getLHS() const { return Impl->LHS; }
AffineExpr AffineExpr::getRHS() const { return Impl->RHS; }

bool AffineExpr::operator==(const AffineExpr &Other) const {
  if (Impl == Other.Impl)
    return true;
  if (!Impl || !Other.Impl)
    return false;
  if (Impl->Kind != Other.Impl->Kind)
    return false;
  switch (Impl->Kind) {
  case Kind::Constant:
    return Impl->Constant == Other.Impl->Constant;
  case Kind::Dim:
  case Kind::Symbol:
    return Impl->Position == Other.Impl->Position;
  case Kind::Add:
  case Kind::Mul:
  case Kind::Mod:
  case Kind::FloorDiv:
    return Impl->LHS == Other.Impl->LHS && Impl->RHS == Other.Impl->RHS;
  }
  return false;
}

int64_t AffineExpr::eval(const std::vector<int64_t> &Dims,
                         const std::vector<int64_t> &Symbols) const {
  switch (getKind()) {
  case Kind::Constant:
    return Impl->Constant;
  case Kind::Dim:
    assert(Impl->Position < Dims.size() && "dim position out of range");
    return Dims[Impl->Position];
  case Kind::Symbol:
    assert(Impl->Position < Symbols.size() && "symbol position out of range");
    return Symbols[Impl->Position];
  case Kind::Add:
    return Impl->LHS.eval(Dims, Symbols) + Impl->RHS.eval(Dims, Symbols);
  case Kind::Mul:
    return Impl->LHS.eval(Dims, Symbols) * Impl->RHS.eval(Dims, Symbols);
  case Kind::Mod: {
    int64_t RHS = Impl->RHS.eval(Dims, Symbols);
    assert(RHS > 0 && "affine mod by non-positive value");
    int64_t LHS = Impl->LHS.eval(Dims, Symbols);
    int64_t Rem = LHS % RHS;
    return Rem < 0 ? Rem + RHS : Rem;
  }
  case Kind::FloorDiv: {
    int64_t RHS = Impl->RHS.eval(Dims, Symbols);
    assert(RHS > 0 && "affine floordiv by non-positive value");
    int64_t LHS = Impl->LHS.eval(Dims, Symbols);
    int64_t Quotient = LHS / RHS;
    if ((LHS % RHS) != 0 && ((LHS < 0) != (RHS < 0)))
      --Quotient;
    return Quotient;
  }
  }
  assert(false && "unhandled affine expr kind");
  return 0;
}

void AffineExpr::collectDimPositions(std::set<unsigned> &Dims) const {
  if (!Impl)
    return;
  switch (Impl->Kind) {
  case Kind::Dim:
    Dims.insert(Impl->Position);
    return;
  case Kind::Constant:
  case Kind::Symbol:
    return;
  case Kind::Add:
  case Kind::Mul:
  case Kind::Mod:
  case Kind::FloorDiv:
    Impl->LHS.collectDimPositions(Dims);
    Impl->RHS.collectDimPositions(Dims);
    return;
  }
}

AffineExpr AffineExpr::replaceDims(const std::vector<unsigned> &Mapping) const {
  switch (getKind()) {
  case Kind::Constant:
  case Kind::Symbol:
    return *this;
  case Kind::Dim:
    assert(Impl->Position < Mapping.size() && "dim not covered by mapping");
    return getDim(Mapping[Impl->Position]);
  case Kind::Add:
  case Kind::Mul:
  case Kind::Mod:
  case Kind::FloorDiv:
    return getBinary(Impl->Kind, Impl->LHS.replaceDims(Mapping),
                     Impl->RHS.replaceDims(Mapping));
  }
  assert(false && "unhandled affine expr kind");
  return {};
}

void AffineExpr::print(std::ostream &OS) const {
  if (!Impl) {
    OS << "<<null expr>>";
    return;
  }
  switch (Impl->Kind) {
  case Kind::Constant:
    OS << Impl->Constant;
    return;
  case Kind::Dim:
    OS << "d" << Impl->Position;
    return;
  case Kind::Symbol:
    OS << "s" << Impl->Position;
    return;
  case Kind::Add:
    OS << "(";
    Impl->LHS.print(OS);
    OS << " + ";
    Impl->RHS.print(OS);
    OS << ")";
    return;
  case Kind::Mul:
    OS << "(";
    Impl->LHS.print(OS);
    OS << " * ";
    Impl->RHS.print(OS);
    OS << ")";
    return;
  case Kind::Mod:
    OS << "(";
    Impl->LHS.print(OS);
    OS << " mod ";
    Impl->RHS.print(OS);
    OS << ")";
    return;
  case Kind::FloorDiv:
    OS << "(";
    Impl->LHS.print(OS);
    OS << " floordiv ";
    Impl->RHS.print(OS);
    OS << ")";
    return;
  }
}

std::string AffineExpr::str() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}

AffineExpr axi4mlir::operator+(AffineExpr LHS, AffineExpr RHS) {
  return AffineExpr::getBinary(AffineExpr::Kind::Add, LHS, RHS);
}

AffineExpr axi4mlir::operator*(AffineExpr LHS, int64_t RHS) {
  return AffineExpr::getBinary(AffineExpr::Kind::Mul, LHS,
                               AffineExpr::getConstant(RHS));
}
