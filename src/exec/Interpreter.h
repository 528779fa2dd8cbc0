//===- Interpreter.h - Host-code IR interpreter -----------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes lowered host code (scf/arith/memref + runtime calls) against
/// the simulated SoC, charging the cost model for every host action. It
/// stands in for running the cross-compiled binary on the PYNQ-Z2: the
/// perf counters it produces correspond to what the paper measures with
/// perf (Sec. IV).
///
/// Three abstraction levels are executable, enabling lowering ablations:
///   * linalg.generic directly (the mlir_CPU baseline),
///   * accel-dialect ops (each transaction on its own),
///   * axirt.* runtime calls (batched transfers; the fully lowered form).
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_INTERPRETER_H
#define AXI4MLIR_EXEC_INTERPRETER_H

#include "dialects/Func.h"
#include "exec/ExecPlanRun.h"
#include "exec/opt/PlanOpt.h"
#include "runtime/DmaRuntime.h"
#include "support/LogicalResult.h"

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace exec {

/// Interprets one func.func against a simulated system. By default the
/// function is compiled once into an ExecPlan, optimized, verified and
/// pre-decoded into a DecodedPlan (cached across run() calls on the same
/// function), and executed through the threaded-dispatch engine. The IR
/// tree walker stays selectable through ExecMode as the reference for the
/// equivalence tests and ablations; both produce identical buffers and
/// perf counters.
class Interpreter {
public:
  /// \p Runtime may be null for CPU-only functions (no accel/axirt ops).
  Interpreter(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
              ExecMode Mode = ExecMode::Threaded);
  ~Interpreter();

  ExecMode execMode() const { return Mode; }

  /// Enables plan-optimizer passes (src/exec/opt) for subsequent runs.
  /// Off by default so the threaded engine charges exactly the walker's
  /// counters (passes like dce/licm may remove or hoist charged work).
  /// Invalidates the plan cache.
  void setPlanOptions(const opt::PlanOptOptions &Options);
  const opt::PlanOptOptions &planOptions() const { return PlanOptions; }
  /// What the optimizer did to the most recently compiled plan.
  const opt::PlanOptStats &planOptStats() const { return OptStats; }

  /// Bounds the LRU plan cache (entries, >= 1). Shrinking below the
  /// current population evicts least-recently-used entries immediately
  /// (charged to the SoC's PlanCacheEvictions counter).
  void setPlanCacheCapacity(size_t Capacity);
  size_t planCacheCapacity() const { return PlanCacheCapacity; }
  size_t planCacheSize() const { return PlanCache.size(); }

  /// Runs \p Func with memref arguments bound to \p Arguments. Decoded
  /// plans are held in a per-Interpreter LRU cache keyed by function
  /// identity, so alternating across several functions skips
  /// recompilation and re-decoding until the capacity bound evicts them.
  /// Hits/misses/evictions are charged to the SoC's HostPerfModel
  /// plan-cache counters (counters only, no cycles).
  LogicalResult run(func::FuncOp Func,
                    const std::vector<runtime::MemRefDesc> &Arguments,
                    std::string &Error);

  /// The pre-decoded program of the most recently used cache entry, or
  /// null until a threaded-mode run() has populated it (a walker
  /// Interpreter never has one). For introspection (disassembly goldens,
  /// kernel-specialization counts).
  const DecodedPlan *decodedPlan() const;

private:
  /// A dynamic value: index/integer, float, or memref.
  struct RuntimeValue {
    enum class Kind { Int, Float, MemRef } Tag = Kind::Int;
    int64_t IntVal = 0;
    double FloatVal = 0;
    runtime::MemRefDesc MemRef;

    static RuntimeValue fromInt(int64_t V) {
      RuntimeValue Value;
      Value.Tag = Kind::Int;
      Value.IntVal = V;
      return Value;
    }
    static RuntimeValue fromFloat(double V) {
      RuntimeValue Value;
      Value.Tag = Kind::Float;
      Value.FloatVal = V;
      return Value;
    }
    static RuntimeValue fromMemRef(runtime::MemRefDesc Desc) {
      RuntimeValue Value;
      Value.Tag = Kind::MemRef;
      Value.MemRef = std::move(Desc);
      return Value;
    }
  };

  LogicalResult executeBlock(Block &TheBlock);
  LogicalResult executeOp(Operation *Op);
  LogicalResult executeLinalgGeneric(Operation *Op);
  LogicalResult executeRuntimeCall(Operation *Op);
  LogicalResult executeAccelOp(Operation *Op);

  RuntimeValue &value(Value V) { return Env[V.getImpl()]; }
  int64_t intValue(Value V) { return value(V).IntVal; }
  const runtime::MemRefDesc &memrefValue(Value V) {
    return value(V).MemRef;
  }
  LogicalResult fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = Message;
    return failure();
  }

  sim::SoC &Soc;
  runtime::DmaRuntime *Runtime;
  ExecMode Mode;
  opt::PlanOptOptions PlanOptions;
  opt::PlanOptStats OptStats;
  /// One decoded function in the LRU plan cache. The fingerprint (name,
  /// op address, structural argument types, top-level op count)
  /// invalidates on the realistic staleness cases; callers mutating a
  /// function body in place without changing any of those must use a
  /// fresh Interpreter.
  struct PlanCacheEntry {
    std::unique_ptr<DecodedPlan> Decoded;
    std::string FuncName;
    Operation *For = nullptr;
    size_t TopLevelOps = 0;
    std::vector<Type> ArgTypes;
    opt::PlanOptStats Stats;
  };
  /// Most-recently-used entry at the front; evicted from the back once
  /// the population exceeds PlanCacheCapacity.
  std::list<PlanCacheEntry> PlanCache;
  size_t PlanCacheCapacity = 8;
  std::map<detail::ValueImpl *, RuntimeValue> Env;
  std::string ErrorMessage;
};

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_INTERPRETER_H
