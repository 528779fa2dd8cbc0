//===- TilingPlan.cpp - Plan construction, cost model, selection ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "transforms/TilingPlan.h"

#include "dialects/Accel.h"
#include "support/STLExtras.h"

#include <cmath>
#include <limits>

using namespace axi4mlir;
using namespace axi4mlir::transforms;

//===----------------------------------------------------------------------===//
// Remainder mode names
//===----------------------------------------------------------------------===//

const char *transforms::remainderModeName(RemainderMode Mode) {
  switch (Mode) {
  case RemainderMode::Reject:
    return "reject";
  case RemainderMode::Pad:
    return "pad";
  case RemainderMode::Peel:
    return "peel";
  }
  return "pad";
}

FailureOr<RemainderMode>
transforms::parseRemainderMode(const std::string &Name) {
  if (Name == "reject")
    return RemainderMode::Reject;
  if (Name == "pad")
    return RemainderMode::Pad;
  if (Name == "peel")
    return RemainderMode::Peel;
  return failure();
}

//===----------------------------------------------------------------------===//
// Plan <-> attribute round trip
//===----------------------------------------------------------------------===//

void TilingPlan::attachTo(Operation *Op) const {
  unsigned NumLoops = Dims.size();
  Op->setAttr(accel::AccelDimAttrName,
              Attribute::getAffineMap(AffineMap::getConstant(NumLoops,
                                                             tiles())));
  Op->setAttr(RemainderModeAttrName,
              Attribute::getString(remainderModeName(Mode)));
  Op->setAttr(PlanRemaindersAttrName,
              Attribute::getAffineMap(AffineMap::getConstant(NumLoops,
                                                             remainders())));
}

FailureOr<TilingPlan> TilingPlan::fromOp(Operation *Op, std::string &Error) {
  linalg::GenericOp Generic(Op);
  std::vector<int64_t> Ranges = Generic.getStaticLoopRanges();
  if (Ranges.empty()) {
    Error = "planned generic has non-inferable loop ranges";
    return failure();
  }
  if (!Op->hasAttr(accel::AccelDimAttrName)) {
    Error = "operation carries no tiling plan (missing accel_dim)";
    return failure();
  }

  TilingPlan Plan;
  AffineMap TileMap = Op->getAffineMapAttr(accel::AccelDimAttrName);
  AffineMap RemainderMap = Op->hasAttr(PlanRemaindersAttrName)
                               ? Op->getAffineMapAttr(PlanRemaindersAttrName)
                               : AffineMap();
  if (Op->hasAttr(RemainderModeAttrName)) {
    auto Mode = parseRemainderMode(Op->getStringAttr(RemainderModeAttrName));
    if (failed(Mode)) {
      Error = "unknown remainder mode '" +
              Op->getStringAttr(RemainderModeAttrName) + "'";
      return failure();
    }
    Plan.Mode = *Mode;
  }
  if (Op->hasAttr(accel::AcceleratorNameAttrName))
    Plan.AcceleratorName = Op->getStringAttr(accel::AcceleratorNameAttrName);

  Plan.Dims.resize(Ranges.size());
  for (unsigned D = 0; D < Ranges.size(); ++D) {
    DimPlan &Dim = Plan.Dims[D];
    Dim.Extent = Ranges[D];
    Dim.Tile = TileMap.getResult(D).getConstantValue();
    Dim.Remainder =
        RemainderMap ? RemainderMap.getResult(D).getConstantValue() : 0;
    Dim.FullTiles = (Dim.Extent - Dim.Remainder) / Dim.Tile;
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Per-accelerator plan construction
//===----------------------------------------------------------------------===//

FailureOr<TilingPlan>
transforms::planForAccelerator(const std::vector<int64_t> &LoopRanges,
                               const parser::AcceleratorDesc &Accel,
                               RemainderMode Mode, std::string &Error) {
  unsigned NumLoops = LoopRanges.size();
  if (Accel.AccelSize.size() != NumLoops) {
    Error = "accel_size rank (" + std::to_string(Accel.AccelSize.size()) +
            ") does not match the kernel's loop count (" +
            std::to_string(NumLoops) + ")";
    return failure();
  }

  TilingPlan Plan;
  Plan.Mode = Mode;
  Plan.AcceleratorName = Accel.Name;
  Plan.Dims.resize(NumLoops);
  std::vector<unsigned> OffendingDims;
  for (unsigned D = 0; D < NumLoops; ++D) {
    DimPlan &Dim = Plan.Dims[D];
    Dim.Extent = LoopRanges[D];
    // Resolve the accelerator tile: >0 -> fixed tile; 0 -> per-element
    // host loop; -1 -> runtime-flexible, covers the full extent.
    int64_t Config = Accel.AccelSize[D];
    if (Config < 0)
      Dim.Tile = Dim.Extent;
    else if (Config == 0)
      Dim.Tile = 1;
    else
      Dim.Tile = Config;
    // Extents below the engine tile: with a pad/peel strategy the tile
    // stays at full engine size and the whole extent becomes a partial
    // tile (a fixed-size engine still expects full-size bursts, so
    // clamping would break the wire protocol). Reject mode keeps the
    // legacy clamp for backward compatibility.
    if (Dim.Tile > Dim.Extent && Mode == RemainderMode::Reject)
      Dim.Tile = Dim.Extent;
    Dim.Remainder = Dim.Extent % Dim.Tile;
    Dim.FullTiles = Dim.Extent / Dim.Tile;
    if (Dim.Remainder != 0)
      OffendingDims.push_back(D);
  }

  if (Mode == RemainderMode::Reject && !OffendingDims.empty()) {
    // Report every offending dimension in one error.
    Error = "problem extents are not divisible by the accelerator tile:";
    for (unsigned D : OffendingDims)
      Error += " dim " + std::to_string(D) + " (extent " +
               std::to_string(Plan.Dims[D].Extent) + ", tile " +
               std::to_string(Plan.Dims[D].Tile) + ")";
    Error += "; use a pad or peel remainder strategy";
    return failure();
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

namespace {

/// Sum of |coeff| over the dims of a linear indexing expression, mapped
/// through \p PerDim; returns the tile footprint of one map result. The
/// cost model works in doubles, which are exact for every realistic tile
/// and cannot overflow on the products of large ones.
double resultFootprint(AffineExpr Expr, const std::vector<int64_t> &PerDim) {
  switch (Expr.getKind()) {
  case AffineExpr::Kind::Constant:
    return 0;
  case AffineExpr::Kind::Dim:
    return static_cast<double>(PerDim[Expr.getPosition()]) - 1;
  case AffineExpr::Kind::Add:
    return resultFootprint(Expr.getLHS(), PerDim) +
           resultFootprint(Expr.getRHS(), PerDim);
  case AffineExpr::Kind::Mul: {
    AffineExpr LHS = Expr.getLHS(), RHS = Expr.getRHS();
    if (RHS.isConstant())
      return std::fabs(static_cast<double>(RHS.getConstantValue())) *
             resultFootprint(LHS, PerDim);
    if (LHS.isConstant())
      return std::fabs(static_cast<double>(LHS.getConstantValue())) *
             resultFootprint(RHS, PerDim);
    return 0;
  }
  default:
    return 0;
  }
}

/// Elements of one operand tile under per-dimension footprints.
double operandTileElements(AffineMap Map, const std::vector<int64_t> &PerDim) {
  double Elements = 1;
  for (const AffineExpr &Result : Map.getResults())
    Elements *= 1 + resultFootprint(Result, PerDim);
  return Elements;
}

} // namespace

double transforms::estimatePlanCostMs(const TilingPlan &Plan,
                                      const parser::AcceleratorDesc &Accel,
                                      const std::vector<AffineMap> &IndexingMaps,
                                      const sim::SoCParams &Params) {
  // Tile-step count over the accelerator region: padded problems round the
  // partial tile up to a full step, peeled problems only run full tiles.
  double AccelSteps = 1.0;
  double PaddedPoints = 1.0, MainPoints = 1.0, TotalPoints = 1.0;
  std::vector<int64_t> Tiles = Plan.tiles();
  for (const DimPlan &Dim : Plan.Dims) {
    int64_t Steps = Plan.Mode == RemainderMode::Peel
                        ? Dim.FullTiles
                        : Dim.FullTiles + (Dim.Remainder ? 1 : 0);
    AccelSteps *= static_cast<double>(Steps);
    PaddedPoints *= static_cast<double>(Dim.paddedExtent());
    MainPoints *= static_cast<double>(Dim.mainExtent());
    TotalPoints *= static_cast<double>(Dim.Extent);
  }

  // Words streamed per tile step: every operand's full-tile footprint
  // (padded partial tiles ship at full size). This deliberately ignores
  // stationary hoisting — it applies equally to every candidate, so it
  // cancels out of the comparison.
  double WordsPerStep = 0.0;
  for (const AffineMap &Map : IndexingMaps)
    WordsPerStep += operandTileElements(Map, Tiles);
  double Words = WordsPerStep * AccelSteps;
  double Bytes = Words * 4.0;

  // Host side: DMA driver calls per step (one batched send + one receive)
  // plus the staging copies in and out.
  double HostCycles =
      static_cast<double>(Params.DmaInitHostCycles) +
      AccelSteps * 2.0 *
          static_cast<double>(Params.DmaStartHostCycles +
                              Params.DmaWaitHostCycles) +
      AccelSteps * 2.0 * static_cast<double>(Params.MemcpySetupInstructions) +
      Bytes / static_cast<double>(Params.MemcpyBytesPerInstruction);

  // Fabric side: transfer latency per step, streamed words, and the
  // compute on the (padded) accelerator region.
  double ComputePoints =
      Plan.Mode == RemainderMode::Peel ? MainPoints : PaddedPoints;
  double OpsPerCycle =
      Accel.Kernel == "linalg.conv_2d_nchw_fchw"
          ? sim::convOpsPerCycle()
          : sim::matmulOpsPerCycle([&] {
              int64_t MaxTile = 1;
              for (int64_t Tile : Tiles)
                MaxTile = std::max(MaxTile, Tile);
              return MaxTile;
            }());
  double FabricCycles =
      AccelSteps * 2.0 *
          static_cast<double>(Params.DmaTransferLatencyFabricCycles) +
      Bytes / static_cast<double>(Params.BytesPerFabricCycle) +
      2.0 * ComputePoints / OpsPerCycle;

  double Ms = Params.taskClockMs(HostCycles, FabricCycles);

  // Peel epilogue: the remainder region executes on the host, roughly one
  // load per operand + one MAC + store per point.
  if (Plan.Mode == RemainderMode::Peel) {
    double EpiloguePoints = TotalPoints - MainPoints;
    double EpilogueCycles =
        EpiloguePoints *
        static_cast<double>(IndexingMaps.size() + 1 +
                            Params.ScalarAccessExtraInstructions +
                            Params.LoopIterationInstructions);
    Ms += Params.taskClockMs(EpilogueCycles, 0.0);
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

FailureOr<TilingPlan>
transforms::planTiling(linalg::GenericOp Generic,
                       const std::vector<parser::AcceleratorDesc> &Accels,
                       const PlanningOptions &Options, std::string &Error) {
  std::vector<int64_t> LoopRanges = Generic.getStaticLoopRanges();
  if (LoopRanges.empty()) {
    Error = "cannot infer static loop ranges for the planned generic";
    return failure();
  }
  return planKernelDispatch(LoopRanges, Generic.getIndexingMaps(), Accels,
                            Options, Error);
}

FailureOr<TilingPlan> transforms::planKernelDispatch(
    const std::vector<int64_t> &LoopRanges,
    const std::vector<AffineMap> &Maps,
    const std::vector<parser::AcceleratorDesc> &Accels,
    const PlanningOptions &Options, std::string &Error) {
  if (Accels.empty()) {
    Error = "no candidate accelerators to plan against";
    return failure();
  }

  bool Found = false;
  TilingPlan Best;
  double BestCost = std::numeric_limits<double>::max();
  std::string Reasons;
  for (size_t Index = 0; Index < Accels.size(); ++Index) {
    std::string CandidateError;
    auto Candidate = planForAccelerator(LoopRanges, Accels[Index],
                                        Options.Mode, CandidateError);
    if (failed(Candidate)) {
      Reasons += (Reasons.empty() ? "" : "; ") + Accels[Index].Name + ": " +
                 CandidateError;
      continue;
    }
    Candidate->AcceleratorIndex = Index;
    Candidate->EstimatedCostMs =
        estimatePlanCostMs(*Candidate, Accels[Index], Maps, Options.Params);
    // Strictly-cheaper wins; ties keep the earlier candidate so selection
    // is deterministic across identical engines.
    if (!Found || Candidate->EstimatedCostMs < BestCost) {
      Found = true;
      Best = std::move(*Candidate);
      BestCost = Best.EstimatedCostMs;
    }
  }
  if (!Found) {
    Error = "no legal accelerator for the kernel: " + Reasons;
    return failure();
  }
  return Best;
}
