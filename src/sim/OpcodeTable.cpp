//===- OpcodeTable.cpp - Geometry rules of the accelerator micro-ISAs -----===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/OpcodeTable.h"

using namespace axi4mlir;
using namespace axi4mlir::sim;

std::string axi4mlir::sim::formatOpcode(uint32_t Opcode) {
  static const char Digits[] = "0123456789abcdef";
  std::string Hex;
  do {
    Hex.insert(Hex.begin(), Digits[Opcode & 0xF]);
    Opcode >>= 4;
  } while (Opcode != 0);
  return "0x" + Hex;
}

OpcodeFsm OpcodeFsm::matmul(MatMulVersion Ver, int64_t Size) {
  OpcodeFsm F;
  F.Spec = &MatMulEngine;
  F.Ver = Ver;
  F.Capacity = matmulBufferCapacity(Ver, Size);
  F.BaseSize = Size;
  F.reset();
  return F;
}

OpcodeFsm OpcodeFsm::conv(int64_t MaxWindowWords) {
  OpcodeFsm F;
  F.Spec = &ConvEngine;
  F.Capacity = MaxWindowWords;
  F.BaseSize = 1;
  F.reset();
  return F;
}

std::optional<std::string> axi4mlir::sim::tileFits(const Geometry &Next,
                                                   bool Positive,
                                                   int64_t Capacity) {
  int64_t M = Next.tileM(), K = Next.tileK(), N = Next.tileN();
  if (Positive && mulWords(M, K) <= Capacity && mulWords(K, N) <= Capacity &&
      mulWords(M, N) <= Capacity)
    return std::nullopt;
  return "cfg tile " + std::to_string(M) + "x" + std::to_string(K) + "x" +
         std::to_string(N) + " does not fit the internal buffers (capacity " +
         std::to_string(Capacity) + " words per operand)";
}

std::optional<std::string> axi4mlir::sim::windowFits(const Geometry &Next,
                                                     bool Positive,
                                                     int64_t Capacity) {
  // windowWords() is -1 (no bound to check) while the other dimension is
  // unknown.
  if (Positive && windowWords(Next) <= Capacity)
    return std::nullopt;
  return "conv2d configuration iC=" + std::to_string(Next.channels()) +
         " fS=" + std::to_string(Next.filterSize()) +
         " exceeds the accelerator window buffer (" +
         std::to_string(Capacity) + " words)";
}

std::optional<std::string> OpcodeFsm::applyCfg(const OpcodeEntry &E) {
  if (StagedUnknown & ((1u << E.CfgWords) - 1)) {
    // A word the checker cannot classify: every word this payload writes
    // becomes unknown.
    for (unsigned I = 0; I < E.CfgWords; ++I)
      G.Dims[E.CfgAt + I] = -1;
    return std::nullopt;
  }
  // The engine reads each cfg word as the signed 32-bit value on the wire.
  Geometry Next = G;
  bool Positive = true;
  for (unsigned I = 0; I < E.CfgWords; ++I) {
    Next.Dims[E.CfgAt + I] = static_cast<int32_t>(Staged[I]);
    Positive = Positive && Next.Dims[E.CfgAt + I] > 0;
  }
  if (std::optional<std::string> Why = Spec->CfgFits(Next, Positive, Capacity))
    return Why;
  G = Next;
  return std::nullopt;
}

std::string OpcodeFsm::unsupportedOpcode(uint32_t Opcode) const {
  return "opcode " + formatOpcode(Opcode) + Spec->Unsupported;
}

std::string OpcodeFsm::filterMismatch(int64_t WindowWords) const {
  return "window size does not match loaded filter (window " +
         std::to_string(WindowWords) + " words, filter " +
         std::to_string(G.FilterWords) + " words)";
}
