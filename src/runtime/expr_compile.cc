#include "runtime/expr_compile.h"

#include <utility>

#include "common/env.h"

namespace jpar {

namespace {

bool IsComparison(Builtin fn) {
  switch (fn) {
    case Builtin::kEq:
    case Builtin::kNe:
    case Builtin::kLt:
    case Builtin::kLe:
    case Builtin::kGt:
    case Builtin::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(Builtin fn) {
  switch (fn) {
    case Builtin::kAdd:
    case Builtin::kSub:
    case Builtin::kMul:
    case Builtin::kDiv:
    case Builtin::kMod:
      return true;
    default:
      return false;
  }
}

void FinalizeProgram(ExprProgram* prog);

/// Emits `node` in postfix order. Returns false on an opaque node — the
/// whole compilation is then abandoned (tree interpreter keeps the
/// expression).
bool CompileNode(const ScalarEval* node, ExprProgram* prog) {
  switch (node->shape()) {
    case ScalarEval::Shape::kConstant: {
      ExprInstr ins;
      ins.op = ExprOpCode::kConst;
      ins.constant = *node->shape_constant();
      prog->code.push_back(std::move(ins));
      return true;
    }
    case ScalarEval::Shape::kColumn: {
      ExprInstr ins;
      ins.op = ExprOpCode::kColumn;
      ins.column = node->shape_column();
      prog->code.push_back(std::move(ins));
      return true;
    }
    case ScalarEval::Shape::kFunction: {
      Builtin fn = node->shape_function();
      const std::vector<ScalarEvalPtr>* args = node->shape_args();
      if (fn == Builtin::kAnd || fn == Builtin::kOr) {
        // Lazy connective: lhs inline, rhs as a sub-program the
        // evaluator runs only on lanes the lhs did not decide.
        if (!CompileNode((*args)[0].get(), prog)) return false;
        auto sub = std::make_shared<ExprProgram>();
        if (!CompileNode((*args)[1].get(), sub.get())) return false;
        FinalizeProgram(sub.get());
        ExprInstr ins;
        ins.op = fn == Builtin::kAnd ? ExprOpCode::kAnd : ExprOpCode::kOr;
        ins.sub = std::move(sub);
        prog->code.push_back(std::move(ins));
        return true;
      }
      for (const ScalarEvalPtr& arg : *args) {
        if (!CompileNode(arg.get(), prog)) return false;
      }
      ExprInstr ins;
      ins.op = ExprOpCode::kCall;
      ins.fn = fn;
      ins.argc = static_cast<uint32_t>(args->size());
      prog->code.push_back(std::move(ins));
      return true;
    }
    case ScalarEval::Shape::kOpaque:
      return false;
  }
  return false;
}

/// Peephole fusion of [kConst c][binary kCall] pairs, then the stack
/// height computation. Fusing only constant right-hand sides covers what
/// the rewriter emits (predicates compare columns against literals).
void FinalizeProgram(ExprProgram* prog) {
  std::vector<ExprInstr> fused;
  fused.reserve(prog->code.size());
  for (ExprInstr& ins : prog->code) {
    if (!fused.empty() && fused.back().op == ExprOpCode::kConst &&
        ins.op == ExprOpCode::kCall && ins.argc == 2) {
      if (IsComparison(ins.fn) || IsArithmetic(ins.fn) ||
          ins.fn == Builtin::kValue) {
        ExprInstr merged;
        merged.op = IsComparison(ins.fn) ? ExprOpCode::kCompareConst
                    : IsArithmetic(ins.fn) ? ExprOpCode::kArithConst
                                           : ExprOpCode::kValueConst;
        merged.fn = ins.fn;
        merged.constant = std::move(fused.back().constant);
        fused.pop_back();
        fused.push_back(std::move(merged));
        continue;
      }
    }
    fused.push_back(std::move(ins));
  }
  prog->code = std::move(fused);

  size_t depth = 0, max_depth = 0;
  for (const ExprInstr& ins : prog->code) {
    switch (ins.op) {
      case ExprOpCode::kConst:
      case ExprOpCode::kColumn:
        ++depth;
        break;
      case ExprOpCode::kCall:
        depth -= ins.argc;
        ++depth;
        break;
      default:  // unary stack effect: pop 1, push 1
        break;
    }
    if (depth > max_depth) max_depth = depth;
  }
  prog->max_stack = max_depth;
}

/// One evaluated operand: a broadcast constant, a borrowed batch column
/// (indexed by row id), or a per-lane owned vector. Borrowing keeps
/// kColumn and kConst zero-copy.
struct Operand {
  const Item* konst = nullptr;
  const std::vector<Item>* column = nullptr;
  std::vector<Item> owned;

  const Item& At(size_t lane, uint32_t row) const {
    if (konst != nullptr) return *konst;
    if (column != nullptr) return (*column)[row];
    return owned[lane];
  }
};

Status Tick(EvalCheck* check) {
  return check != nullptr ? check->Tick() : Status::OK();
}

void RecordError(std::vector<LaneError>* errors, std::vector<uint8_t>* dead,
                 size_t lane, Status status) {
  (*dead)[lane] = 1;
  errors->push_back(LaneError{lane, std::move(status)});
}

}  // namespace

ExprProgramPtr CompileExprProgram(const ScalarEvalPtr& eval) {
  if (eval == nullptr) return nullptr;
  auto prog = std::make_shared<ExprProgram>();
  if (!CompileNode(eval.get(), prog.get())) return nullptr;
  FinalizeProgram(prog.get());
  prog->source = eval->ToString();
  return prog;
}

Status EvalExprProgram(const ExprProgram& prog, const TupleBatch& batch,
                       const std::vector<uint32_t>& sel, EvalContext* ctx,
                       EvalCheck* check, std::vector<Item>* out,
                       std::vector<LaneError>* errors) {
  const size_t n = sel.size();
  std::vector<uint8_t> dead(n, 0);
  std::vector<Operand> stack;
  stack.reserve(prog.max_stack);
  std::vector<Item> scratch;

  for (const ExprInstr& ins : prog.code) {
    switch (ins.op) {
      case ExprOpCode::kConst: {
        Operand v;
        v.konst = &ins.constant;
        stack.push_back(std::move(v));
        break;
      }
      case ExprOpCode::kColumn: {
        Operand v;
        if (ins.column < 0 ||
            static_cast<size_t>(ins.column) >= batch.width()) {
          // Same failure ColumnEval reports; the width is uniform, so
          // every live lane fails identically — recording the first
          // live lane preserves the lowest-row error.
          Status st = Status::Internal(
              "column " + std::to_string(ins.column) +
              " out of range for tuple of width " +
              std::to_string(batch.width()));
          for (size_t lane = 0; lane < n; ++lane) {
            if (!dead[lane]) RecordError(errors, &dead, lane, st);
          }
          v.owned.resize(n);
        } else {
          v.column = &batch.column(static_cast<size_t>(ins.column));
        }
        stack.push_back(std::move(v));
        break;
      }
      case ExprOpCode::kCall: {
        size_t argc = ins.argc;
        Operand result;
        result.owned.resize(n);
        const Operand* args = stack.data() + (stack.size() - argc);
        for (size_t lane = 0; lane < n; ++lane) {
          if (dead[lane]) continue;
          JPAR_RETURN_NOT_OK(Tick(check));
          scratch.clear();
          for (size_t j = 0; j < argc; ++j) {
            scratch.push_back(args[j].At(lane, sel[lane]));
          }
          Result<Item> r = ApplyBuiltin(ins.fn, scratch, ctx);
          if (!r.ok()) {
            RecordError(errors, &dead, lane, r.status());
          } else {
            result.owned[lane] = *std::move(r);
          }
        }
        stack.resize(stack.size() - argc);
        stack.push_back(std::move(result));
        break;
      }
      case ExprOpCode::kCompareConst: {
        Operand top = std::move(stack.back());
        stack.pop_back();
        Operand result;
        result.owned.resize(n);
        const bool konst_seq = ins.constant.is_sequence();
        for (size_t lane = 0; lane < n; ++lane) {
          if (dead[lane]) continue;
          JPAR_RETURN_NOT_OK(Tick(check));
          const Item& lhs = top.At(lane, sel[lane]);
          if (!lhs.is_sequence() && !konst_seq) {
            // Atomic-vs-atomic: the single existential pair.
            Result<int> c = lhs.Compare(ins.constant);
            if (!c.ok()) {
              RecordError(errors, &dead, lane, c.status());
              continue;
            }
            bool hit = false;
            switch (ins.fn) {
              case Builtin::kEq: hit = *c == 0; break;
              case Builtin::kNe: hit = *c != 0; break;
              case Builtin::kLt: hit = *c < 0; break;
              case Builtin::kLe: hit = *c <= 0; break;
              case Builtin::kGt: hit = *c > 0; break;
              case Builtin::kGe: hit = *c >= 0; break;
              default: break;
            }
            result.owned[lane] = Item::Boolean(hit);
            continue;
          }
          Result<Item> r = GeneralCompareOp(ins.fn, lhs, ins.constant);
          if (!r.ok()) {
            RecordError(errors, &dead, lane, r.status());
          } else {
            result.owned[lane] = *std::move(r);
          }
        }
        stack.push_back(std::move(result));
        break;
      }
      case ExprOpCode::kArithConst: {
        Operand top = std::move(stack.back());
        stack.pop_back();
        Operand result;
        result.owned.resize(n);
        for (size_t lane = 0; lane < n; ++lane) {
          if (dead[lane]) continue;
          JPAR_RETURN_NOT_OK(Tick(check));
          Result<Item> r =
              ArithmeticOp(ins.fn, top.At(lane, sel[lane]), ins.constant);
          if (!r.ok()) {
            RecordError(errors, &dead, lane, r.status());
          } else {
            result.owned[lane] = *std::move(r);
          }
        }
        stack.push_back(std::move(result));
        break;
      }
      case ExprOpCode::kValueConst: {
        Operand top = std::move(stack.back());
        stack.pop_back();
        Operand result;
        result.owned.resize(n);
        for (size_t lane = 0; lane < n; ++lane) {
          if (dead[lane]) continue;
          JPAR_RETURN_NOT_OK(Tick(check));
          Result<Item> r = ValueStep(top.At(lane, sel[lane]), ins.constant);
          if (!r.ok()) {
            RecordError(errors, &dead, lane, r.status());
          } else {
            result.owned[lane] = *std::move(r);
          }
        }
        stack.push_back(std::move(result));
        break;
      }
      case ExprOpCode::kAnd:
      case ExprOpCode::kOr: {
        const bool is_and = ins.op == ExprOpCode::kAnd;
        Operand top = std::move(stack.back());
        stack.pop_back();
        Operand result;
        result.owned.resize(n);
        std::vector<uint32_t> undecided_rows;
        std::vector<size_t> undecided_lanes;
        for (size_t lane = 0; lane < n; ++lane) {
          if (dead[lane]) continue;
          JPAR_RETURN_NOT_OK(Tick(check));
          Result<bool> lb = top.At(lane, sel[lane]).EffectiveBooleanValue();
          if (!lb.ok()) {
            RecordError(errors, &dead, lane, lb.status());
          } else if (is_and && !*lb) {
            result.owned[lane] = Item::Boolean(false);
          } else if (!is_and && *lb) {
            result.owned[lane] = Item::Boolean(true);
          } else {
            undecided_rows.push_back(sel[lane]);
            undecided_lanes.push_back(lane);
          }
        }
        if (!undecided_rows.empty()) {
          std::vector<Item> sub_out;
          std::vector<LaneError> sub_errors;
          JPAR_RETURN_NOT_OK(EvalExprProgram(*ins.sub, batch, undecided_rows,
                                             ctx, check, &sub_out,
                                             &sub_errors));
          for (LaneError& e : sub_errors) {
            RecordError(errors, &dead, undecided_lanes[e.lane],
                        std::move(e.status));
          }
          for (size_t k = 0; k < undecided_lanes.size(); ++k) {
            size_t lane = undecided_lanes[k];
            if (dead[lane]) continue;
            Result<bool> rb = sub_out[k].EffectiveBooleanValue();
            if (!rb.ok()) {
              RecordError(errors, &dead, lane, rb.status());
            } else {
              result.owned[lane] = Item::Boolean(*rb);
            }
          }
        }
        stack.push_back(std::move(result));
        break;
      }
    }
  }

  if (stack.size() != 1) {
    return Status::Internal("expression bytecode stack imbalance");
  }
  Operand top = std::move(stack.back());
  if (top.konst != nullptr) {
    out->assign(n, *top.konst);
  } else if (top.column != nullptr) {
    out->clear();
    out->reserve(n);
    for (size_t lane = 0; lane < n; ++lane) {
      out->push_back((*top.column)[sel[lane]]);
    }
  } else {
    *out = std::move(top.owned);
  }
  return Status::OK();
}

bool ExprBytecodeDisabledByEnv() {
  static const bool disabled = EnvFlagSet("JPAR_DISABLE_EXPR_BYTECODE");
  return disabled;
}

}  // namespace jpar
