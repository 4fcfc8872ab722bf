#include "algebra/physical_translator.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "json/parser.h"

namespace jpar {

namespace {

/// Variable -> column positions of the tuples flowing at some plan
/// point.
using Schema = std::vector<VarId>;

int ColumnOf(const Schema& schema, VarId var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Result<ScalarEvalPtr> CompileExpr(const LExprPtr& expr,
                                  const Schema& schema) {
  if (expr == nullptr) return Status::Internal("compiling a null expression");
  switch (expr->kind) {
    case LExpr::Kind::kConstant:
      return MakeConstantEval(expr->constant);
    case LExpr::Kind::kVarRef: {
      int col = ColumnOf(schema, expr->var);
      if (col < 0) {
        return Status::Internal("unbound variable " + VarName(expr->var) +
                                " during physical translation");
      }
      return MakeColumnEval(col);
    }
    case LExpr::Kind::kFunction: {
      std::vector<ScalarEvalPtr> args;
      args.reserve(expr->args.size());
      for (const LExprPtr& a : expr->args) {
        JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev, CompileExpr(a, schema));
        args.push_back(std::move(ev));
      }
      return MakeFunctionEval(expr->fn, std::move(args));
    }
  }
  return Status::Internal("unknown expression kind");
}

struct NodeAndSchema {
  std::shared_ptr<PNode> node;
  Schema schema;
  /// Trusted cardinality estimate flowing at this plan point, or -1.
  /// Only ever set from stats the CostModel trusts, so downstream
  /// decisions (build side, spill fanout) inherit that trust.
  double est_rows = -1;
};

std::string FmtRows(double rows) {
  if (rows < 0) return "?";
  return std::to_string(static_cast<long long>(rows + 0.5));
}

std::string FmtSel(double sel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", sel);
  return buf;
}

/// Compile-time zone-map annotation (DESIGN.md §14). When a SELECT
/// sits directly on a DATASCAN and compares the scan's output column
/// against a numeric constant (either argument order), the normalized
/// predicate is recorded on the ScanDesc so the executor's columnar
/// access path can prune whole blocks by their min/max zone maps. The
/// SELECT stays in the plan untouched — pruning only ever removes rows
/// the SELECT would drop, so every other access path is unaffected.
void MaybeAnnotateZonePredicate(PNode* node) {
  if (node->scan.kind != ScanDesc::Kind::kDataScan) return;
  if (node->input != nullptr || node->ops.size() != 1) return;
  const ScalarEval* ev = node->ops.front().eval.get();
  if (ev == nullptr || ev->shape() != ScalarEval::Shape::kFunction) return;
  Builtin fn = ev->shape_function();
  if (fn != Builtin::kEq && fn != Builtin::kLt && fn != Builtin::kLe &&
      fn != Builtin::kGt && fn != Builtin::kGe) {
    return;
  }
  const std::vector<ScalarEvalPtr>* args = ev->shape_args();
  if (args == nullptr || args->size() != 2) return;
  const ScalarEval* lhs = (*args)[0].get();
  const ScalarEval* rhs = (*args)[1].get();
  // Normalize to column <op> constant; a constant on the left flips
  // the comparison direction (c < x  ==  x > c).
  bool flipped = false;
  if (lhs->shape() == ScalarEval::Shape::kConstant &&
      rhs->shape() == ScalarEval::Shape::kColumn) {
    std::swap(lhs, rhs);
    flipped = true;
  }
  if (lhs->shape() != ScalarEval::Shape::kColumn ||
      rhs->shape() != ScalarEval::Shape::kConstant) {
    return;
  }
  // The scan's output is the leaf pipeline's only column.
  if (lhs->shape_column() != 0) return;
  const Item* constant = rhs->shape_constant();
  if (constant == nullptr || !constant->is_numeric()) return;
  // Beyond 2^53 an int64 constant rounds when widened to double and
  // the zone-map comparison would no longer be exact — skip.
  constexpr double kMaxExactInt = 9007199254740992.0;
  if (constant->is_int64() && (constant->int64_value() > kMaxExactInt ||
                               constant->int64_value() < -kMaxExactInt)) {
    return;
  }
  ZoneCompare op = ZoneCompare::kNone;
  switch (fn) {
    case Builtin::kEq:
      op = ZoneCompare::kEq;
      break;
    case Builtin::kLt:
      op = flipped ? ZoneCompare::kGt : ZoneCompare::kLt;
      break;
    case Builtin::kLe:
      op = flipped ? ZoneCompare::kGe : ZoneCompare::kLe;
      break;
    case Builtin::kGt:
      op = flipped ? ZoneCompare::kLt : ZoneCompare::kGt;
      break;
    case Builtin::kGe:
      op = flipped ? ZoneCompare::kLe : ZoneCompare::kGe;
      break;
    default:
      return;
  }
  node->scan.zone_op = op;
  node->scan.zone_value = constant->AsDouble();
}

/// Builtins a scan prefilter may evaluate on a probe tuple: pure
/// functions of their arguments, which read no catalog and charge no
/// memory.
bool PrefilterBuiltin(Builtin fn) {
  switch (fn) {
    case Builtin::kValue:
    case Builtin::kData:
    case Builtin::kPromote:
    case Builtin::kTreat:
    case Builtin::kDateTime:
    case Builtin::kYearFromDateTime:
    case Builtin::kMonthFromDateTime:
    case Builtin::kDayFromDateTime:
    case Builtin::kEq:
    case Builtin::kNe:
    case Builtin::kLt:
    case Builtin::kLe:
    case Builtin::kGt:
    case Builtin::kGe:
    case Builtin::kAnd:
    case Builtin::kOr:
    case Builtin::kNot:
    case Builtin::kAdd:
    case Builtin::kSub:
    case Builtin::kMul:
    case Builtin::kDiv:
    case Builtin::kMod:
    case Builtin::kNeg:
    case Builtin::kConcat:
    case Builtin::kSubstring:
    case Builtin::kStringLength:
    case Builtin::kContains:
    case Builtin::kStartsWith:
    case Builtin::kUpperCase:
    case Builtin::kLowerCase:
    case Builtin::kStringFn:
    case Builtin::kAbs:
    case Builtin::kRound:
    case Builtin::kFloor:
    case Builtin::kCeiling:
    case Builtin::kEmpty:
    case Builtin::kExists:
    case Builtin::kBooleanFn:
      return true;
    default:
      return false;
  }
}

/// The probe key of `e` when it is value($col0, "<constant string>").
const std::string* ProbeKeyOf(const ScalarEval& e) {
  if (e.shape() != ScalarEval::Shape::kFunction ||
      e.shape_function() != Builtin::kValue) {
    return nullptr;
  }
  const std::vector<ScalarEvalPtr>& args = *e.shape_args();
  if (args.size() != 2 || args[0]->shape() != ScalarEval::Shape::kColumn ||
      args[0]->shape_column() != 0 ||
      args[1]->shape() != ScalarEval::Shape::kConstant ||
      !args[1]->shape_constant()->is_string()) {
    return nullptr;
  }
  return &args[1]->shape_constant()->string_value();
}

/// True when `e` may join a prefilter run after `assigned` ASSIGNs of
/// the run (columns 1..assigned); appends its new probe keys to `*keys`
/// in first-seen order.
bool AdmitToPrefilter(const ScalarEval& e, int assigned,
                      std::vector<std::string>* keys) {
  if (const std::string* key = ProbeKeyOf(e)) {
    if (std::find(keys->begin(), keys->end(), *key) == keys->end()) {
      keys->push_back(*key);
    }
    return true;
  }
  switch (e.shape()) {
    case ScalarEval::Shape::kConstant:
      return true;
    case ScalarEval::Shape::kColumn:
      // A bare $col0 needs the whole record.
      return e.shape_column() >= 1 && e.shape_column() <= assigned;
    case ScalarEval::Shape::kFunction:
      if (!PrefilterBuiltin(e.shape_function())) return false;
      for (const ScalarEvalPtr& a : *e.shape_args()) {
        if (!AdmitToPrefilter(*a, assigned, keys)) return false;
      }
      return true;
    case ScalarEval::Shape::kOpaque:
      return false;
  }
  return false;
}

/// An admitted `e` over the probe tuple [keys..., assigned...].
Result<ScalarEvalPtr> RewriteForProbe(const ScalarEvalPtr& e,
                                      const std::vector<std::string>& keys) {
  if (const std::string* key = ProbeKeyOf(*e)) {
    auto it = std::find(keys.begin(), keys.end(), *key);
    return MakeColumnEval(static_cast<int>(it - keys.begin()));
  }
  switch (e->shape()) {
    case ScalarEval::Shape::kColumn:
      return MakeColumnEval(static_cast<int>(keys.size()) +
                            e->shape_column() - 1);
    case ScalarEval::Shape::kFunction: {
      std::vector<ScalarEvalPtr> args;
      for (const ScalarEvalPtr& a : *e->shape_args()) {
        JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr r, RewriteForProbe(a, keys));
        args.push_back(std::move(r));
      }
      return MakeFunctionEval(e->shape_function(), std::move(args));
    }
    default:
      return e;  // constants are shared as they are
  }
}

/// Compile-time scan prefilter annotation (DESIGN.md §9). Runs each
/// time a SELECT joins a scan pipeline, so the final annotation covers
/// the pipeline's whole leading ASSIGN/SELECT run. A run without a
/// SELECT or a probe key, or with more keys than ProbeObject tracks,
/// leaves the scan unannotated.
void MaybeAnnotatePrefilter(PNode* node) {
  if (node->scan.kind != ScanDesc::Kind::kDataScan) return;
  if (node->input != nullptr) return;
  node->scan.prefilter = nullptr;
  // The run is the longest admissible prefix, cut after its last
  // SELECT; keys are collected in op order, so the run's are a prefix.
  std::vector<std::string> keys;
  size_t run = 0;
  size_t run_keys = 0;
  int assigned = 0;
  for (size_t i = 0; i < node->ops.size(); ++i) {
    const UnaryOpDesc& op = node->ops[i];
    const bool assign = op.kind == UnaryOpDesc::Kind::kAssign;
    if ((!assign && op.kind != UnaryOpDesc::Kind::kSelect) ||
        op.eval == nullptr || !AdmitToPrefilter(*op.eval, assigned, &keys)) {
      break;
    }
    if (assign) {
      ++assigned;
    } else {
      run = i + 1;
      run_keys = keys.size();
    }
  }
  keys.resize(run_keys);
  if (keys.empty() || keys.size() > JsonCursor::kMaxProbeKeys) return;
  auto prefilter = std::make_shared<ScanPrefilter>();
  for (size_t i = 0; i < run; ++i) {
    const UnaryOpDesc& op = node->ops[i];
    auto rewritten = RewriteForProbe(op.eval, keys);
    if (!rewritten.ok()) return;
    prefilter->ops.push_back(op.kind == UnaryOpDesc::Kind::kAssign
                                 ? UnaryOpDesc::Assign(*std::move(rewritten))
                                 : UnaryOpDesc::Select(*std::move(rewritten)));
  }
  prefilter->keys = std::move(keys);
  node->scan.prefilter = std::move(prefilter);
}

class Translator {
 public:
  explicit Translator(const PhysicalOptions& options) : options_(options) {}

  Result<PhysicalPlan> Translate(const LogicalPlan& plan) {
    if (plan.root == nullptr || plan.root->kind != LOpKind::kDistributeResult) {
      return Status::InvalidArgument(
          "logical plan must be rooted at DISTRIBUTE-RESULT");
    }
    JPAR_ASSIGN_OR_RETURN(NodeAndSchema body,
                          TranslateOp(plan.root->input()));
    int col = ColumnOf(body.schema, plan.root->result_var);
    if (col < 0) {
      return Status::Internal("result variable " +
                              VarName(plan.root->result_var) +
                              " not in final schema");
    }
    PhysicalPlan out;
    out.root = body.node;
    out.result_column = col;
    out.exprs_compiled = exprs_compiled_;
    out.est_result_rows = body.est_rows;
    out.cost_choices = std::move(cost_choices_);
    return out;
  }

 private:
  /// Attaches flat bytecode to a main-pipeline ASSIGN/SELECT when
  /// compilation is on and the tree is compilable. Subplan ops are left
  /// alone: the batch chain runs subplan suffixes through the tuple
  /// fallback, so counting them would overstate `exprs_compiled`.
  UnaryOpDesc MaybeCompile(UnaryOpDesc d) {
    if (!options_.compile_expr_bytecode) return d;
    d.program = CompileExprProgram(d.eval);
    if (d.program != nullptr) ++exprs_compiled_;
    return d;
  }

  /// Returns `ns` if its node is an extensible pipeline, otherwise wraps
  /// it in a fresh pipeline stage.
  NodeAndSchema AsPipeline(NodeAndSchema ns) {
    if (ns.node->kind == PNode::Kind::kPipeline) return ns;
    auto pipe = std::make_shared<PNode>();
    pipe->kind = PNode::Kind::kPipeline;
    pipe->input = ns.node;
    ns.node = pipe;
    return ns;
  }

  const CostModel* cost() const {
    return options_.cost_model != nullptr && options_.cost_model->enabled()
               ? options_.cost_model
               : nullptr;
  }

  Result<NodeAndSchema> TranslateOp(const LOpPtr& op) {
    if (op == nullptr) return Status::Internal("translating a null operator");
    switch (op->kind) {
      case LOpKind::kEmptyTupleSource: {
        NodeAndSchema ns;
        ns.node = std::make_shared<PNode>();
        ns.node->kind = PNode::Kind::kPipeline;
        ns.node->scan.kind = ScanDesc::Kind::kEmptyTupleSource;
        return ns;
      }
      case LOpKind::kDataScan: {
        NodeAndSchema ns;
        ns.node = std::make_shared<PNode>();
        ns.node->kind = PNode::Kind::kPipeline;
        ns.node->scan.kind = ScanDesc::Kind::kDataScan;
        ns.node->scan.collection = op->collection;
        ns.node->scan.steps = op->steps;
        ns.node->scan.use_index = op->use_index;
        ns.node->scan.index_path = op->index_path;
        ns.node->scan.index_value = op->index_value;
        ns.schema.push_back(op->out_var);
        if (cost() != nullptr) {
          ScanEstimate est = cost()->EstimateScan(op->collection, op->steps);
          if (est.from_stats) ns.node->scan.est_rows = est.rows;
          if (cost()->Trust(est)) {
            ns.est_rows = est.rows;
            size_t hint = cost()->MorselBytesHint(est.bytes);
            if (hint > 0) ns.node->scan.morsel_bytes_hint = hint;
            cost_choices_.push_back("scan " + op->collection +
                                    ": est-rows=" + FmtRows(est.rows) +
                                    " morsel-hint=" + std::to_string(hint));
          }
        }
        return ns;
      }
      case LOpKind::kProject: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        NodeAndSchema ns = AsPipeline(std::move(in));
        std::vector<int> columns;
        Schema new_schema;
        for (VarId v : op->project_vars) {
          int col = ColumnOf(ns.schema, v);
          if (col < 0) {
            return Status::Internal("PROJECT of unbound variable " +
                                    VarName(v));
          }
          columns.push_back(col);
          new_schema.push_back(v);
        }
        ns.node->ops.push_back(UnaryOpDesc::Project(std::move(columns)));
        ns.schema = std::move(new_schema);
        return ns;
      }
      case LOpKind::kAssign:
      case LOpKind::kSelect:
      case LOpKind::kUnnest: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        NodeAndSchema ns = AsPipeline(std::move(in));
        JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                              CompileExpr(op->expr, ns.schema));
        if (op->kind == LOpKind::kAssign) {
          ns.node->ops.push_back(MaybeCompile(UnaryOpDesc::Assign(std::move(ev))));
          ns.schema.push_back(op->out_var);
        } else if (op->kind == LOpKind::kSelect) {
          ns.node->ops.push_back(MaybeCompile(UnaryOpDesc::Select(std::move(ev))));
          MaybeAnnotateZonePredicate(ns.node.get());
          MaybeAnnotatePrefilter(ns.node.get());
          if (cost() != nullptr) {
            double sel = CostModel::kDefaultSelectivity;
            // A zone-annotated SELECT (necessarily this one: annotation
            // requires a single-op pipeline on the scan) carries enough
            // shape to estimate from the sampled value distribution —
            // and, when selective, to route the scan to the columnar
            // access path where zone maps can prune whole blocks.
            if (ns.node->ops.size() == 1 &&
                ns.node->scan.zone_op != ZoneCompare::kNone) {
              ScanEstimate est = cost()->EstimateScan(ns.node->scan.collection,
                                                      ns.node->scan.steps);
              sel = cost()->EstimateSelectivity(est, ns.node->scan.zone_op,
                                                ns.node->scan.zone_value);
              if (cost()->Trust(est) &&
                  sel <= CostModel::kColumnarSelectivity &&
                  ns.node->scan.access_hint == AccessHint::kAny) {
                ns.node->scan.access_hint = AccessHint::kColumnar;
                cost_choices_.push_back("select on " +
                                        ns.node->scan.collection + ": sel=" +
                                        FmtSel(sel) + " -> columnar scan");
              }
            }
            if (ns.est_rows >= 0) ns.est_rows *= sel;
          }
        } else {
          ns.node->ops.push_back(UnaryOpDesc::Unnest(std::move(ev)));
          ns.schema.push_back(op->out_var);
          ns.est_rows = -1;  // fan-out per row is unknown
        }
        return ns;
      }
      case LOpKind::kSubplan: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        NodeAndSchema ns = AsPipeline(std::move(in));
        JPAR_ASSIGN_OR_RETURN(std::shared_ptr<const SubplanDesc> sub,
                              CompileSubplan(op->nested, &ns.schema));
        ns.node->ops.push_back(UnaryOpDesc::Subplan(std::move(sub)));
        return ns;
      }
      case LOpKind::kAggregate: {
        // A top-level AGGREGATE is a GROUP-BY with no keys.
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kGroupBy;
        node->input = in.node;
        node->two_step = options_.two_step_aggregation;
        Schema out_schema;
        for (const LOp::AggItem& a : op->aggs) {
          AggSpec spec;
          spec.kind = a.agg;
          JPAR_ASSIGN_OR_RETURN(spec.arg, CompileExpr(a.arg, in.schema));
          node->aggs.push_back(std::move(spec));
          out_schema.push_back(a.var);
        }
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = std::move(out_schema);
        ns.est_rows = 1;  // a keyless aggregate emits exactly one row
        return ns;
      }
      case LOpKind::kGroupBy: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        if (op->nested == nullptr ||
            op->nested->kind != LOpKind::kAggregate ||
            op->nested->input()->kind != LOpKind::kNestedTupleSource) {
          return Status::Unsupported(
              "GROUP-BY nested plans must be a single AGGREGATE over "
              "NESTED-TUPLE-SOURCE at physical translation time");
        }
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kGroupBy;
        node->input = in.node;
        Schema out_schema;
        for (const LOp::KeyItem& k : op->keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                                CompileExpr(k.expr, in.schema));
          node->keys.push_back(std::move(ev));
          out_schema.push_back(k.var);
        }
        bool all_incremental = true;
        for (const LOp::AggItem& a : op->nested->aggs) {
          AggSpec spec;
          spec.kind = a.agg;
          if (a.agg == AggKind::kSequence) all_incremental = false;
          JPAR_ASSIGN_OR_RETURN(spec.arg, CompileExpr(a.arg, in.schema));
          node->aggs.push_back(std::move(spec));
          out_schema.push_back(a.var);
        }
        node->two_step = options_.two_step_aggregation && all_incremental;
        if (cost() != nullptr && in.est_rows >= 0) {
          int fanout = cost()->SpillFanoutHint(in.est_rows);
          if (fanout > 0) {
            node->spill_fanout_hint = fanout;
            cost_choices_.push_back(
                "group-by: est-input-rows=" + FmtRows(in.est_rows) +
                " fanout-hint=" + std::to_string(fanout));
          }
        }
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = std::move(out_schema);
        return ns;
      }
      case LOpKind::kOrderBy: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema in, TranslateOp(op->input()));
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kSort;
        node->input = in.node;
        for (const LOp::KeyItem& k : op->keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                                CompileExpr(k.expr, in.schema));
          node->sort_keys.push_back(std::move(ev));
        }
        node->sort_descending = op->sort_descending;
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = in.schema;  // sorting preserves the schema
        ns.est_rows = in.est_rows;  // ... and the cardinality
        return ns;
      }
      case LOpKind::kJoin: {
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema left, TranslateOp(op->inputs[0]));
        JPAR_ASSIGN_OR_RETURN(NodeAndSchema right, TranslateOp(op->inputs[1]));
        auto node = std::make_shared<PNode>();
        node->kind = PNode::Kind::kJoin;
        node->left = left.node;
        node->right = right.node;
        for (const LExprPtr& k : op->left_keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev, CompileExpr(k, left.schema));
          node->left_keys.push_back(std::move(ev));
        }
        for (const LExprPtr& k : op->right_keys) {
          JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev,
                                CompileExpr(k, right.schema));
          node->right_keys.push_back(std::move(ev));
        }
        Schema out_schema = left.schema;
        out_schema.insert(out_schema.end(), right.schema.begin(),
                          right.schema.end());
        if (op->expr != nullptr) {
          JPAR_ASSIGN_OR_RETURN(node->residual,
                                CompileExpr(op->expr, out_schema));
        }
        // Build-side choice: hash joins canonically build on the right;
        // when both inputs carry trusted estimates and the left is
        // clearly smaller, build there instead. The executor reproduces
        // the canonical emit order either way (pair-sort), so this is
        // an answer-preserving annotation like every other cost lever.
        if (cost() != nullptr && !node->left_keys.empty() &&
            left.est_rows >= 0 && right.est_rows >= 0 &&
            left.est_rows <= right.est_rows * CostModel::kBuildFlipRatio) {
          node->build_left = true;
          cost_choices_.push_back("join: build=left (est " +
                                  FmtRows(left.est_rows) + " vs " +
                                  FmtRows(right.est_rows) + ")");
        }
        NodeAndSchema ns;
        ns.node = node;
        ns.schema = std::move(out_schema);
        if (left.est_rows >= 0 && right.est_rows >= 0) {
          ns.est_rows = std::max(left.est_rows, right.est_rows);
        }
        return ns;
      }
      case LOpKind::kNestedTupleSource:
        return Status::Internal(
            "NESTED-TUPLE-SOURCE outside a nested plan");
      case LOpKind::kDistributeResult:
        return Status::Internal("nested DISTRIBUTE-RESULT");
    }
    return Status::Internal("unknown logical operator kind");
  }

  /// Compiles a SUBPLAN nested chain (AGGREGATE over streaming ops over
  /// NESTED-TUPLE-SOURCE). `outer_schema` is extended with the
  /// aggregate output variables.
  Result<std::shared_ptr<const SubplanDesc>> CompileSubplan(
      const LOpPtr& nested, Schema* outer_schema) {
    if (nested == nullptr || nested->kind != LOpKind::kAggregate) {
      return Status::Unsupported(
          "SUBPLAN nested plans must end in AGGREGATE");
    }
    // Collect the chain bottom-up.
    std::vector<LOpPtr> chain;
    LOpPtr cursor = nested->input();
    while (cursor != nullptr && cursor->kind != LOpKind::kNestedTupleSource) {
      chain.push_back(cursor);
      if (cursor->inputs.empty()) {
        return Status::Unsupported("SUBPLAN chain without a tuple source");
      }
      cursor = cursor->input();
    }
    if (cursor == nullptr) {
      return Status::Unsupported("SUBPLAN chain without a tuple source");
    }
    std::reverse(chain.begin(), chain.end());

    auto desc = std::make_shared<SubplanDesc>();
    Schema schema = *outer_schema;  // nested plans see the outer tuple
    for (const LOpPtr& op : chain) {
      JPAR_ASSIGN_OR_RETURN(ScalarEvalPtr ev, CompileExpr(op->expr, schema));
      switch (op->kind) {
        case LOpKind::kAssign:
          desc->ops.push_back(UnaryOpDesc::Assign(std::move(ev)));
          schema.push_back(op->out_var);
          break;
        case LOpKind::kSelect:
          desc->ops.push_back(UnaryOpDesc::Select(std::move(ev)));
          break;
        case LOpKind::kUnnest:
          desc->ops.push_back(UnaryOpDesc::Unnest(std::move(ev)));
          schema.push_back(op->out_var);
          break;
        default:
          return Status::Unsupported(
              "SUBPLAN chains support ASSIGN/SELECT/UNNEST only");
      }
    }
    for (const LOp::AggItem& a : nested->aggs) {
      AggSpec spec;
      spec.kind = a.agg;
      JPAR_ASSIGN_OR_RETURN(spec.arg, CompileExpr(a.arg, schema));
      desc->aggs.push_back(std::move(spec));
      outer_schema->push_back(a.var);
    }
    return std::shared_ptr<const SubplanDesc>(desc);
  }

  PhysicalOptions options_;
  uint64_t exprs_compiled_ = 0;
  std::vector<std::string> cost_choices_;
};

}  // namespace

Result<PhysicalPlan> TranslateToPhysical(const LogicalPlan& plan,
                                         const PhysicalOptions& options) {
  Translator translator(options);
  return translator.Translate(plan);
}

}  // namespace jpar
