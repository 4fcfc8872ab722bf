#include "runtime/aggregates.h"

#include <functional>
#include <utility>
#include <vector>

namespace jpar {

namespace {

/// Members contributed by an item to an aggregate: a sequence
/// contributes its members, anything else contributes itself. An empty
/// sequence contributes nothing (e.g. count of missing fields).
void ForEachMember(const Item& item, const std::function<void(const Item&)>& f) {
  if (item.is_sequence()) {
    for (const Item& m : item.sequence()) f(m);
  } else {
    f(item);
  }
}

class SequenceAggregator : public Aggregator {
 public:
  Status Step(const Item& item) override {
    ForEachMember(item, [this](const Item& m) {
      items_.push_back(m);
      retained_ += m.EstimateSizeBytes();
    });
    return Status::OK();
  }
  Result<Item> Finish() override {
    return Item::MakeSequence(std::move(items_));
  }
  size_t RetainedBytes() const override { return retained_; }

  // MakeSequence's singleton collapse is harmless here: MergePartial
  // appends members exactly like Step, and members are never themselves
  // sequences (ForEachMember flattened them on the way in).
  Result<Item> SavePartial() const override {
    return Item::MakeSequence(items_);
  }
  Status MergePartial(const Item& partial) override { return Step(partial); }

 private:
  Item::ItemVector items_;
  size_t retained_ = 0;
};

class CountAggregator : public Aggregator {
 public:
  explicit CountAggregator(AggStep step) : step_(step) {}

  Status Step(const Item& item) override {
    if (step_ == AggStep::kGlobal) {
      // Merge partial counts by summing.
      if (!item.is_int64()) {
        return Status::Internal("global count expects int64 partials");
      }
      count_ += item.int64_value();
      return Status::OK();
    }
    ForEachMember(item, [this](const Item&) { ++count_; });
    return Status::OK();
  }
  Result<Item> Finish() override { return Item::Int64(count_); }
  size_t RetainedBytes() const override { return sizeof(*this); }

  Result<Item> SavePartial() const override { return Item::Int64(count_); }
  Status MergePartial(const Item& partial) override {
    // Always sums, regardless of step: the snapshot is already a count.
    if (!partial.is_int64()) {
      return Status::Internal("count spill partial must be int64");
    }
    count_ += partial.int64_value();
    return Status::OK();
  }

 private:
  AggStep step_;
  int64_t count_ = 0;
};

class MinMaxAggregator : public Aggregator {
 public:
  MinMaxAggregator(bool is_min) : is_min_(is_min) {}

  Status Step(const Item& item) override {
    Status st;
    ForEachMember(item, [this, &st](const Item& m) {
      if (!st.ok()) return;
      if (!has_value_) {
        best_ = m;
        has_value_ = true;
        return;
      }
      Result<int> c = m.Compare(best_);
      if (!c.ok()) {
        st = c.status();
        return;
      }
      if ((is_min_ && *c < 0) || (!is_min_ && *c > 0)) best_ = m;
    });
    return st;
  }
  Result<Item> Finish() override {
    if (!has_value_) return Item::EmptySequence();
    return best_;
  }
  size_t RetainedBytes() const override {
    // The aggregator itself, with best_ at Item::kAccountingBytes.
    return sizeof(*this) - sizeof(Item) + Item::kAccountingBytes +
           best_.EstimateSizeBytes();
  }

  Result<Item> SavePartial() const override {
    // No value yet -> the empty sequence, which MergePartial (via
    // Step's ForEachMember) treats as contributing nothing. `best_` is
    // never itself a sequence, so the cases cannot be confused.
    if (!has_value_) return Item::EmptySequence();
    return best_;
  }
  Status MergePartial(const Item& partial) override { return Step(partial); }

 private:
  bool is_min_;
  bool has_value_ = false;
  Item best_;
};

/// Sum and avg share the running (sum, count) state. Local avg emits an
/// [sum, count] array partial; global avg merges those.
class SumAvgAggregator : public Aggregator {
 public:
  SumAvgAggregator(AggKind kind, AggStep step) : kind_(kind), step_(step) {}

  Status Step(const Item& item) override {
    if (step_ == AggStep::kGlobal) return StepGlobal(item);
    Status st;
    ForEachMember(item, [this, &st](const Item& m) {
      if (!st.ok()) return;
      if (!m.is_numeric()) {
        st = Status::TypeError("sum/avg over non-numeric value: " +
                               std::string(ItemKindToString(m.kind())));
        return;
      }
      sum_ += m.AsDouble();
      if (!m.is_int64()) all_int_ = false;
      ++count_;
    });
    return st;
  }

  Result<Item> Finish() override {
    if (step_ == AggStep::kLocal && kind_ == AggKind::kAvg) {
      // Partial: [sum, count].
      return Item::MakeArray({Item::Double(sum_),
                              Item::Int64(static_cast<int64_t>(count_))});
    }
    if (kind_ == AggKind::kSum) {
      if (all_int_) return Item::Int64(static_cast<int64_t>(sum_));
      return Item::Double(sum_);
    }
    if (count_ == 0) return Item::EmptySequence();
    return Item::Double(sum_ / static_cast<double>(count_));
  }

  size_t RetainedBytes() const override { return sizeof(*this); }

  Result<Item> SavePartial() const override {
    // The full state, not Finish()'s lossy projection: the exact sum
    // bits, the count, and the all-ints flag that decides whether sum
    // finishes as Int64.
    return Item::MakeArray({Item::Double(sum_),
                            Item::Int64(static_cast<int64_t>(count_)),
                            Item::Boolean(all_int_)});
  }
  Status MergePartial(const Item& partial) override {
    if (!partial.is_array() || partial.array().size() != 3 ||
        !partial.array()[0].is_double() || !partial.array()[1].is_int64() ||
        !partial.array()[2].is_boolean()) {
      return Status::Internal(
          "sum/avg spill partial must be [sum, count, all_int]");
    }
    sum_ += partial.array()[0].double_value();
    count_ += static_cast<uint64_t>(partial.array()[1].int64_value());
    all_int_ = all_int_ && partial.array()[2].boolean_value();
    return Status::OK();
  }

 private:
  Status StepGlobal(const Item& item) {
    if (kind_ == AggKind::kSum) {
      if (!item.is_numeric()) {
        return Status::Internal("global sum expects numeric partials");
      }
      sum_ += item.AsDouble();
      if (!item.is_int64()) all_int_ = false;
      ++count_;
      return Status::OK();
    }
    // avg partial: [sum, count].
    if (!item.is_array() || item.array().size() != 2 ||
        !item.array()[0].is_numeric() || !item.array()[1].is_int64()) {
      return Status::Internal("global avg expects [sum, count] partials");
    }
    sum_ += item.array()[0].AsDouble();
    count_ += static_cast<uint64_t>(item.array()[1].int64_value());
    all_int_ = false;
    return Status::OK();
  }

  AggKind kind_;
  AggStep step_;
  double sum_ = 0;
  uint64_t count_ = 0;
  bool all_int_ = true;
};

}  // namespace

std::string_view AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kSequence:
      return "sequence";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

Result<std::unique_ptr<Aggregator>> MakeAggregator(AggKind kind,
                                                   AggStep step) {
  switch (kind) {
    case AggKind::kSequence:
      if (step != AggStep::kComplete) {
        return Status::Internal("sequence aggregation cannot be split");
      }
      return std::unique_ptr<Aggregator>(new SequenceAggregator());
    case AggKind::kCount:
      return std::unique_ptr<Aggregator>(new CountAggregator(step));
    case AggKind::kSum:
    case AggKind::kAvg:
      return std::unique_ptr<Aggregator>(new SumAvgAggregator(kind, step));
    case AggKind::kMin:
      return std::unique_ptr<Aggregator>(new MinMaxAggregator(true));
    case AggKind::kMax:
      return std::unique_ptr<Aggregator>(new MinMaxAggregator(false));
  }
  return Status::Internal("unknown aggregation kind");
}

}  // namespace jpar
