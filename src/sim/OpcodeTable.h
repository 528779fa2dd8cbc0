//===- OpcodeTable.h - Accelerator micro-ISAs as data -----------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware contract of the simulated accelerators, written once as
/// data (the paper's opcode_map / opcode_flow view of a micro-ISA): one
/// constexpr table per accelerator saying which opcodes exist, which
/// matmul versions accept each, what payload follows the opcode word and
/// which effects fire when that payload completes. Beside the tables sit
/// the geometry rules every payload length derives from (buffer capacity,
/// cfg tile fit, conv window fit, window-matches-filter), each reading
/// stream words as the 32-bit value the wire carries, with
/// overflow-checked products and one diagnostic per error class.
///
/// OpcodeFsm is the one cursor over a table. The simulator FSMs
/// (TableDrivenModel in AcceleratorModel.h) step it with concrete words;
/// the static checker (analysis/ProtocolModel) steps it with abstract
/// words and carries -1 for geometry it cannot determine. Both therefore
/// accept, size and reject exactly the same streams.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_OPCODETABLE_H
#define AXI4MLIR_SIM_OPCODETABLE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

namespace axi4mlir {
namespace sim {

/// Opcode literals of the micro-ISAs (the values the host streams ahead of
/// data bursts; matmul values follow paper Fig. 6a, conv values Fig. 15a).
namespace opcodes {
// MatMul family (v1..v4).
inline constexpr uint32_t MM_RESET = 0xFF;     ///< clear all buffers
inline constexpr uint32_t MM_SASBCCRC = 0x21;  ///< v1: A,B in; C out
inline constexpr uint32_t MM_SA = 0x22;        ///< load A tile
inline constexpr uint32_t MM_SB = 0x23;        ///< load B tile
inline constexpr uint32_t MM_RC = 0x24;        ///< emit C tile, clear C
inline constexpr uint32_t MM_SB_CC_RC = 0x25;  ///< B in; compute; C out
inline constexpr uint32_t MM_SA_CC_RC = 0x26;  ///< A in; compute; C out
inline constexpr uint32_t MM_CC_RC = 0x27;     ///< v2: compute; C out
inline constexpr uint32_t MM_CC = 0xF0;        ///< compute, accumulate C
inline constexpr uint32_t MM_CFG = 0x10;       ///< v4: set tM,tK,tN
// Conv family (paper Fig. 15a).
inline constexpr uint32_t CONV_SF = 1;      ///< load filter slice
inline constexpr uint32_t CONV_RO = 8;      ///< emit output slice
inline constexpr uint32_t CONV_SET_IC = 16; ///< next word: iC
inline constexpr uint32_t CONV_SET_FS = 32; ///< next word: fH (== fW)
inline constexpr uint32_t CONV_SICO = 70;   ///< input window in; compute
} // namespace opcodes

/// Table I engine versions of the MatMul family.
enum class MatMulVersion : uint8_t { V1, V2, V3, V4 };

/// What follows an opcode word on the stream.
enum class Payload : uint8_t {
  None,   ///< immediate opcode
  Cfg,    ///< geometry words (OpcodeEntry::CfgAt / CfgWords)
  A,      ///< tM*tK operand words
  B,      ///< tK*tN operand words
  AThenB, ///< A's words, then B's
  Filter, ///< iC*fS*fS filter words
  Window, ///< iC*fS*fS input-window words
};

/// Effects applied, in this order, when an opcode's payload completes
/// (at once for Payload::None).
namespace effect {
inline constexpr uint8_t ClearBuffers = 1 << 0; ///< zero operands + accumulator
inline constexpr uint8_t NewSlice = 1 << 1;     ///< drop the output slice
inline constexpr uint8_t Compute = 1 << 2;      ///< compute into the slice
inline constexpr uint8_t Emit = 1 << 3;         ///< push the slice, clear it
} // namespace effect

/// One opcode of a micro-ISA.
struct OpcodeEntry {
  uint32_t Opcode;
  uint8_t Versions; ///< accepting matmul versions: bit N-1 for vN
  Payload Load;
  uint8_t CfgAt;    ///< Cfg: first geometry word the payload writes
  uint8_t CfgWords; ///< Cfg: payload length
  uint8_t Effects;  ///< effect:: bits
};

namespace detail {
inline constexpr uint8_t V1 = 1, V2 = 2, V3 = 4, V4 = 8, AllVersions = 0xF;
} // namespace detail

/// Table I: the version column is each opcode's Versions mask.
inline constexpr OpcodeEntry MatMulOpcodes[] = {
    {opcodes::MM_RESET, detail::AllVersions, Payload::None, 0, 0,
     effect::ClearBuffers},
    {opcodes::MM_SASBCCRC, detail::V1, Payload::AThenB, 0, 0,
     effect::Compute | effect::Emit},
    {opcodes::MM_SA, detail::V2 | detail::V3 | detail::V4, Payload::A, 0, 0,
     0},
    {opcodes::MM_SB, detail::V2 | detail::V3 | detail::V4, Payload::B, 0, 0,
     0},
    {opcodes::MM_RC, detail::V3 | detail::V4, Payload::None, 0, 0,
     effect::Emit},
    {opcodes::MM_SB_CC_RC, detail::V2 | detail::V3 | detail::V4, Payload::B,
     0, 0, effect::Compute | effect::Emit},
    {opcodes::MM_SA_CC_RC, detail::V2 | detail::V3 | detail::V4, Payload::A,
     0, 0, effect::Compute | effect::Emit},
    {opcodes::MM_CC_RC, detail::V2 | detail::V3 | detail::V4, Payload::None,
     0, 0, effect::Compute | effect::Emit},
    {opcodes::MM_CC, detail::V3 | detail::V4, Payload::None, 0, 0,
     effect::Compute},
    // tM, tK, tN; the new tile resizes (and so clears) the buffers.
    {opcodes::MM_CFG, detail::V4, Payload::Cfg, 0, 3, effect::ClearBuffers},
};

/// Fig. 15a: filter + output stationary, one output value per window.
inline constexpr OpcodeEntry ConvOpcodes[] = {
    {opcodes::CONV_SF, detail::AllVersions, Payload::Filter, 0, 0,
     effect::NewSlice},
    {opcodes::CONV_RO, detail::AllVersions, Payload::None, 0, 0,
     effect::Emit},
    {opcodes::CONV_SET_IC, detail::AllVersions, Payload::Cfg, 0, 1, 0},
    {opcodes::CONV_SET_FS, detail::AllVersions, Payload::Cfg, 1, 1, 0},
    {opcodes::CONV_SICO, detail::AllVersions, Payload::Window, 0, 0,
     effect::Compute},
};

/// The state every payload length derives from. The static checker marks
/// words it cannot determine with -1; the simulator never holds -1.
struct Geometry {
  /// Runtime-configurable words in cfg-payload order: matmul tM, tK, tN;
  /// conv iC, fS.
  int64_t Dims[3] = {0, 0, 0};
  /// Conv: words of the loaded filter (0 until the first filter lands).
  int64_t FilterWords = 0;

  int64_t tileM() const { return Dims[0]; }
  int64_t tileK() const { return Dims[1]; }
  int64_t tileN() const { return Dims[2]; }
  int64_t channels() const { return Dims[0]; }
  int64_t filterSize() const { return Dims[1]; }

  bool operator==(const Geometry &O) const {
    return Dims[0] == O.Dims[0] && Dims[1] == O.Dims[1] &&
           Dims[2] == O.Dims[2] && FilterWords == O.FilterWords;
  }
};

/// Word-count product: -1 when either side is unknown (< 0), saturating
/// at INT64_MAX instead of overflowing.
inline int64_t mulWords(int64_t A, int64_t B) {
  if (A < 0 || B < 0)
    return -1;
  int64_t R;
  return __builtin_mul_overflow(A, B, &R)
             ? std::numeric_limits<int64_t>::max()
             : R;
}
/// Word-count sum with the same unknown/saturation rules.
inline int64_t addWords(int64_t A, int64_t B) {
  if (A < 0 || B < 0)
    return -1;
  int64_t R;
  return __builtin_add_overflow(A, B, &R)
             ? std::numeric_limits<int64_t>::max()
             : R;
}

/// Per-operand buffer capacity in words of a \p Ver engine with default
/// square tile \p Size: v4's flex memories hold 16x the square tile
/// (paper Sec. IV-B "flex size").
inline int64_t matmulBufferCapacity(MatMulVersion Ver, int64_t Size) {
  int64_t Square = mulWords(Size, Size);
  return Ver == MatMulVersion::V4 ? mulWords(Square, 16) : Square;
}

/// Formats an opcode word the way protocol dumps spell it ("0x21").
std::string formatOpcode(uint32_t Opcode);

/// Payload words of a conv filter or window at geometry \p At (iC*fS*fS).
inline int64_t windowWords(const Geometry &At) {
  return mulWords(At.channels(), mulWords(At.filterSize(), At.filterSize()));
}

/// A cfg payload's fit rule: the diagnostic when geometry \p Next (whose
/// written words are all positive iff \p Positive) does not fit an engine
/// whose buffers hold \p Capacity words, else nullopt.
using CfgRule = std::optional<std::string> (*)(const Geometry &Next,
                                               bool Positive,
                                               int64_t Capacity);
/// Matmul: every operand tile (tM*tK, tK*tN, tM*tN) fits a buffer.
std::optional<std::string> tileFits(const Geometry &Next, bool Positive,
                                    int64_t Capacity);
/// Conv: one iC*fS*fS window fits the window buffer.
std::optional<std::string> windowFits(const Geometry &Next, bool Positive,
                                      int64_t Capacity);

namespace detail {
/// Opcode word -> 1 + its entry's index in \p Table (0: no such opcode),
/// so the FSMs find an entry in O(1). Every opcode fits in a byte.
template <size_t N>
constexpr std::array<uint8_t, 256>
indexByOpcode(const OpcodeEntry (&Table)[N]) {
  std::array<uint8_t, 256> Index{};
  for (size_t I = 0; I < N; ++I)
    Index[Table[I].Opcode] = static_cast<uint8_t>(I + 1);
  return Index;
}
} // namespace detail

/// Everything the cursor knows about one accelerator: its opcode table
/// and the rules beside it.
struct EngineSpec {
  const OpcodeEntry *Table;
  /// Opcode word -> 1 + its entry's index in Table (0: no such opcode).
  std::array<uint8_t, 256> Index;
  CfgRule CfgFits;
  /// Output rule. True: each Compute adds one value to the output slice
  /// and Emit pushes the slice (conv). False: the accumulator is the
  /// fixed tM x tN tile, which Emit pushes whole (matmul).
  bool ValuePerCompute;
  /// Diagnostic tail for an opcode the engine does not implement.
  const char *Unsupported;
};

inline constexpr EngineSpec MatMulEngine = {
    MatMulOpcodes, detail::indexByOpcode(MatMulOpcodes), tileFits, false,
    " is not supported by this matmul version"};
inline constexpr EngineSpec ConvEngine = {
    ConvOpcodes, detail::indexByOpcode(ConvOpcodes), windowFits, true,
    " is not supported by the conv2d accelerator"};

/// The cursor over one accelerator's opcode table: the current entry, the
/// payload fill and expected counts, the geometry, and the staged cfg
/// words. start() and finish() apply the geometry rules.
class OpcodeFsm {
public:
  OpcodeFsm() = default;

  static OpcodeFsm matmul(MatMulVersion Ver, int64_t Size);
  static OpcodeFsm conv(int64_t MaxWindowWords);

  /// Back to Idle with the power-on geometry: the square default tile
  /// (matmul) or one channel of a 1x1 filter, no filter loaded (conv,
  /// whose third word is unused).
  void reset() {
    Cur = nullptr;
    Fill = Expected = 0;
    G = Geometry();
    G.Dims[0] = G.Dims[1] = G.Dims[2] = BaseSize;
  }

  bool idle() const { return Cur == nullptr; }
  /// The opcode whose payload is being received (null when idle).
  const OpcodeEntry *current() const { return Cur; }
  bool readingCfg() const { return Cur && Cur->Load == Payload::Cfg; }
  int64_t fill() const { return Fill; }
  /// Payload words of the current opcode (-1 = unknown geometry).
  int64_t expected() const { return Expected; }
  int64_t remaining() const { return Expected - Fill; }
  const Geometry &geometry() const { return G; }
  /// Matmul only: the engine version and its default square tile.
  MatMulVersion version() const { return Ver; }
  int64_t baseSize() const { return BaseSize; }
  /// Per-operand buffer words (matmul) or window buffer words (conv).
  int64_t capacity() const { return Capacity; }

  /// Starts the opcode word \p Opcode. On success the FSM expects
  /// expected() payload words (0: finish() next). An opcode this engine
  /// does not implement leaves the FSM idle and returns false.
  bool start(uint32_t Opcode) {
    uint8_t Slot = Opcode < 256 ? Spec->Index[Opcode] : 0;
    if (Slot == 0)
      return false;
    const OpcodeEntry &E = Spec->Table[Slot - 1];
    if (!((E.Versions >> static_cast<unsigned>(Ver)) & 1))
      return false;
    Cur = &E;
    Fill = 0;
    Expected = payloadWords(E);
    return true;
  }
  /// The diagnostic for an opcode start() rejected.
  std::string unsupportedOpcode(uint32_t Opcode) const;

  /// Stages cfg payload words at the fill position (readingCfg() only).
  void stageCfg(const uint32_t *Words, size_t Count) {
    std::memcpy(Staged + Fill, Words, Count * sizeof(uint32_t));
    StagedUnknown &= static_cast<uint8_t>(~(((1u << Count) - 1) << Fill));
  }
  /// Stages one cfg word the static checker may not know.
  void stageCfg(uint32_t Word, bool Known) {
    Staged[Fill] = Word;
    if (Known)
      StagedUnknown &= static_cast<uint8_t>(~(1u << Fill));
    else
      StagedUnknown |= static_cast<uint8_t>(1u << Fill);
  }

  /// Accounts \p Count received payload words; true when the payload is
  /// complete.
  bool advance(int64_t Count) { return (Fill += Count) == Expected; }

  /// Completes the current opcode and returns to Idle. Applies the
  /// payload's geometry rule (cfg fit, filter load, window match); a
  /// violated rule leaves the geometry untouched and returns its
  /// diagnostic, and the opcode's effects must then not fire.
  std::optional<std::string> finish() {
    const OpcodeEntry &E = *Cur;
    Cur = nullptr;
    int64_t Words = Expected;
    Fill = Expected = 0;
    switch (E.Load) {
    case Payload::Cfg:
      return applyCfg(E);
    case Payload::Filter:
      G.FilterWords = Words;
      return std::nullopt;
    case Payload::Window:
      if (G.FilterWords >= 0 && Words >= 0 && G.FilterWords != Words)
        return filterMismatch(Words);
      return std::nullopt;
    default:
      return std::nullopt;
    }
  }

  /// Values held in the output slice after a Compute effect, given \p
  /// Slice values before it: conv adds one value per window; the matmul
  /// accumulator tile has a fixed size, which emitWords() reads instead.
  int64_t sliceAfterCompute(int64_t Slice) const {
    if (!Spec->ValuePerCompute)
      return Slice;
    return Slice < 0 ? -1 : Slice + 1;
  }
  /// Output words an Emit effect pushes from a slice of \p Slice values.
  int64_t emitWords(int64_t Slice) const {
    return Spec->ValuePerCompute ? Slice : mulWords(G.tileM(), G.tileN());
  }

  /// Same position, geometry and staged cfg words (the engine, version
  /// and capacity are fixed per instance).
  bool operator==(const OpcodeFsm &O) const {
    if (Cur != O.Cur || Fill != O.Fill || Expected != O.Expected ||
        !(G == O.G))
      return false;
    for (int64_t I = 0; readingCfg() && I < Fill; ++I) {
      bool Unknown = StagedUnknown >> I & 1;
      if (Unknown != (O.StagedUnknown >> I & 1) ||
          (!Unknown && Staged[I] != O.Staged[I]))
        return false;
    }
    return true;
  }

private:
  int64_t payloadWords(const OpcodeEntry &E) const {
    switch (E.Load) {
    case Payload::None:
      return 0;
    case Payload::Cfg:
      return E.CfgWords;
    case Payload::A:
      return mulWords(G.tileM(), G.tileK());
    case Payload::B:
      return mulWords(G.tileK(), G.tileN());
    case Payload::AThenB:
      return addWords(mulWords(G.tileM(), G.tileK()),
                      mulWords(G.tileK(), G.tileN()));
    case Payload::Filter:
    case Payload::Window:
      return windowWords(G);
    }
    return 0;
  }
  std::optional<std::string> applyCfg(const OpcodeEntry &E);
  std::string filterMismatch(int64_t WindowWords) const;

  const EngineSpec *Spec = &MatMulEngine;
  const OpcodeEntry *Cur = nullptr;
  int64_t Capacity = 0;
  /// Matmul: the default square tile; conv: 1.
  int64_t BaseSize = 0;
  int64_t Fill = 0;
  int64_t Expected = 0;
  Geometry G;
  uint32_t Staged[3] = {0, 0, 0}; ///< cfg payload words received so far
  uint8_t StagedUnknown = 0;      ///< bit I: Staged[I] is not known
  MatMulVersion Ver = MatMulVersion::V1; ///< conv: every entry accepts V1
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_OPCODETABLE_H
