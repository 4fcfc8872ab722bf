#ifndef JPAR_RUNTIME_EXPR_COMPILE_H_
#define JPAR_RUNTIME_EXPR_COMPILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "json/item.h"
#include "runtime/expression.h"
#include "runtime/tuple_batch.h"

namespace jpar {

/// Flat postfix bytecode for ASSIGN/SELECT expressions (DESIGN.md §13).
/// The compiler walks a ScalarEval tree (via ScalarEval::shape()) and
/// emits one instruction per node in left-to-right depth-first order —
/// exactly the order the tree interpreter evaluates in, so per-lane
/// errors surface at the same subexpression. A peephole pass then fuses
/// the patterns the rewriter actually emits:
///
///   opcode         operands          meaning (stack effect)
///   kConst         constant          push the constant        (+1)
///   kColumn        column            push batch column        (+1)
///   kCall          fn, argc          eager builtin            (-argc, +1)
///   kAnd / kOr     sub               lazy connective: EBV of top; rhs
///                                    sub-program runs only on undecided
///                                    lanes                    (-1, +1)
///   kCompareConst  fn, constant      fused cmp-vs-constant    (-1, +1)
///   kArithConst    fn, constant      fused arith-vs-constant  (-1, +1)
///   kValueConst    constant          fused value(x, const)    (-1, +1)
struct ExprProgram;
using ExprProgramPtr = std::shared_ptr<const ExprProgram>;

enum class ExprOpCode : uint8_t {
  kConst,
  kColumn,
  kCall,
  kAnd,
  kOr,
  kCompareConst,
  kArithConst,
  kValueConst,
};

struct ExprInstr {
  ExprOpCode op = ExprOpCode::kConst;
  Builtin fn = Builtin::kValue;  // kCall/kCompareConst/kArithConst
  uint32_t argc = 0;             // kCall
  int column = -1;               // kColumn
  Item constant;                 // kConst and fused forms
  ExprProgramPtr sub;            // kAnd/kOr right-hand side
};

struct ExprProgram {
  std::vector<ExprInstr> code;
  size_t max_stack = 0;
  /// The source tree's ToString(), for plan printing and tests.
  std::string source;
};

/// Compiles a ScalarEval tree into bytecode. Returns nullptr (not an
/// error) when the tree has a node the compiler cannot see through
/// (Shape::kOpaque) — the expression then stays on the tree interpreter.
ExprProgramPtr CompileExprProgram(const ScalarEvalPtr& eval);

/// One lane's deferred failure: `lane` indexes the selection vector the
/// evaluator was given (not the row id). The batch chain converts lanes
/// to rows and reports the lowest-row error once the whole chain has
/// run — the same error tuple-at-a-time execution would have stopped at.
struct LaneError {
  size_t lane = 0;
  Status status;
};

/// Cooperative-check hook threaded through batch evaluation: fires the
/// callback every kExprCheckIntervalLanes lane visits so a batch larger
/// than the executor's check interval still honors the every-256-tuples
/// cancellation guarantee. Cheap to tick (counter + branch).
constexpr uint64_t kExprCheckIntervalLanes = 256;

class EvalCheck {
 public:
  EvalCheck() = default;
  explicit EvalCheck(std::function<Status()> fn) : fn_(std::move(fn)) {}
  Status Tick() {
    if (fn_ && (++count_ % kExprCheckIntervalLanes) == 0) return fn_();
    return Status::OK();
  }

 private:
  std::function<Status()> fn_;
  uint64_t count_ = 0;
};

/// Evaluates `prog` for every lane of `sel` (a subset of `batch`'s rows,
/// ascending). On success `out` has one Item per lane; lanes that failed
/// are listed in `errors` (at most one entry per lane, the first failure
/// in evaluation order) and hold a placeholder in `out`. A non-OK return
/// is a whole-batch failure (cancellation/deadline from `check`), not a
/// per-lane one. `check` may be nullptr.
Status EvalExprProgram(const ExprProgram& prog, const TupleBatch& batch,
                       const std::vector<uint32_t>& sel, EvalContext* ctx,
                       EvalCheck* check, std::vector<Item>* out,
                       std::vector<LaneError>* errors);

/// True when JPAR_DISABLE_EXPR_BYTECODE is set in the environment (per
/// EnvFlagSet); checked once per process. With
/// ExprMode::kAuto this forces the legacy tuple-at-a-time tree path.
bool ExprBytecodeDisabledByEnv();

}  // namespace jpar

#endif  // JPAR_RUNTIME_EXPR_COMPILE_H_
