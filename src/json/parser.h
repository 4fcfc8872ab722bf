#ifndef JPAR_JSON_PARSER_H_
#define JPAR_JSON_PARSER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/item.h"
#include "json/structural_index.h"

namespace jpar {

/// Parses a complete JSON document into an Item (DOM). Numbers without
/// fraction/exponent that fit int64 become kInt64, otherwise kDouble.
/// Trailing non-whitespace after the document is an error.
Result<Item> ParseJson(std::string_view text);

/// Parses a stream of concatenated or newline-delimited JSON documents
/// (NDJSON). Whitespace-only input yields zero documents. Collection
/// files are streams: a file may hold one document or many.
Result<std::vector<Item>> ParseJsonStream(std::string_view text);

/// Internal recursive-descent cursor shared by the DOM parser and the
/// projecting reader. Exposed in the header for the projecting reader
/// and for white-box tests.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Indexed cursor (the stage-2 side of DESIGN.md §9). `index` must
  /// have been built over the buffer that contains `text`, with `text`
  /// starting at byte `index_offset` of that buffer — the projecting
  /// stream reader uses a nonzero offset for per-record cursors in
  /// degraded scans. With an index, SkipValue hops structural-to-
  /// structural and string scanning jumps quote-to-quote instead of
  /// inspecting every byte. One deliberate relaxation: escape sequences
  /// inside *skipped* strings are not validated (materialized strings
  /// still are) — structural malformations are still caught.
  JsonCursor(std::string_view text, const StructuralIndex* index,
             size_t index_offset = 0)
      : text_(text), index_(index), index_offset_(index_offset) {}

  /// Re-points the cursor at `text` (position 0) with a new index
  /// origin, keeping the scratch stacks' capacity. The lenient stream
  /// reader restarts once per record and reuses one cursor.
  void Reset(std::string_view text, const StructuralIndex* index,
             size_t index_offset) {
    text_ = text;
    pos_ = 0;
    index_ = index;
    index_offset_ = index_offset;
  }

  /// Parses one JSON value at the cursor into a DOM Item. Fields and
  /// members are gathered on the cursor's scratch stacks and each
  /// finished object or array is moved into a vector of exactly its
  /// size: one allocation per container instead of one per growth step.
  Result<Item> ParseValue(int depth = 0);

  /// Skips one JSON value without materializing it. This is what makes
  /// path-projected scans cheap: non-matching subtrees are scanned
  /// (byte-by-byte without an index, structural-to-structural with one)
  /// but never allocated.
  Status SkipValue(int depth = 0);

  /// Parses a JSON string at the cursor (cursor must be at '"').
  Result<std::string> ParseString();

  /// Parses an object key at the cursor without building a string when
  /// it can: an escape-free key is returned as a view of its raw bytes
  /// in the input; a key containing a backslash is decoded by
  /// ParseString into `*scratch` and the view points there. Accepts,
  /// rejects and positions exactly as ParseString does. The view is
  /// valid until the next call that reuses `scratch`.
  Result<std::string_view> ParseKey(std::string* scratch);

  /// The probe pass of the scan prefilter (DESIGN.md §9): walks the
  /// object at the cursor once, parsing the value of the first
  /// occurrence of each of `keys` (compared as ParseKey spans) into
  /// `slots[i]` and skipping every other value. Slots of absent keys
  /// are left as they were. `keys` holds distinct entries; more than
  /// kMaxProbeKeys of them is an InvalidArgument error, before any input
  /// is read.
  /// On success the cursor sits where ParseValue(depth) would leave it.
  /// A malformed object returns an error; in scalar mode it is exactly
  /// ParseValue's (message and offset), while in indexed mode skipped
  /// strings have their escapes unchecked (see the indexed constructor)
  /// — so `*escapes_unchecked` is set when the indexed object holds any
  /// backslash, and only a probe that succeeds with it clear proves
  /// ParseValue would accept the object.
  Status ProbeObject(const std::vector<std::string>& keys, Item* slots,
                     bool* escapes_unchecked, int depth = 0);

  /// Moves the cursor back (or forward) to `pos`, a position it has
  /// already visited — a probed record is re-parsed from its start.
  void Seek(size_t pos) { pos_ = pos; }

  void SkipWhitespace();
  bool AtEnd() {
    SkipWhitespace();
    return pos_ >= text_.size();
  }
  size_t position() const { return pos_; }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ErrorHere(std::string msg) const;

  /// Maximum nesting depth accepted before reporting an error (guards
  /// against stack exhaustion on adversarial inputs).
  static constexpr int kMaxDepth = 512;

  /// Most distinct keys one ProbeObject call tracks (one bit each).
  static constexpr size_t kMaxProbeKeys = 64;

 private:
  Result<Item> ParseNumber();
  Status Expect(char c);

  /// Indexed helpers (require index_ != nullptr).
  size_t IndexNextQuote(size_t local_pos) const;
  Status SkipString();
  Status SkipAtom();
  Status SkipValueIndexed(int depth);

  std::string_view text_;
  size_t pos_ = 0;
  const StructuralIndex* index_ = nullptr;  // not owned; null = scalar
  size_t index_offset_ = 0;

  /// Scratch stacks of ParseValue: each open object (array) owns the
  /// entries above the mark it took on entry, and every exit — success
  /// or error — truncates the stack back to that mark.
  std::vector<ObjectField> field_stack_;
  std::vector<Item> member_stack_;
  /// ProbeObject's decode buffer for keys that contain escapes.
  std::string key_scratch_;
};

}  // namespace jpar

#endif  // JPAR_JSON_PARSER_H_
