#ifndef JPAR_JSON_STRUCTURAL_INDEX_H_
#define JPAR_JSON_STRUCTURAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jpar {

/// Which scanning pipeline a JSON consumer runs (DESIGN.md §9).
///   kScalar  — the original byte-at-a-time recursive descent.
///   kIndexed — two-stage: build a StructuralIndex over the buffer
///              (stage 1), then parse against its bitmaps (stage 2), so
///              SkipValue jumps structural-to-structural and string
///              scanning jumps quote-to-quote.
enum class ScanMode : uint8_t { kScalar = 0, kIndexed = 1 };

/// Vector kernel used to build the index. kSwar is the portable
/// baseline (64-bit lanes, no intrinsics); kSse2/kAvx2 are x86 fast
/// paths selected at runtime.
enum class SimdLevel : uint8_t { kSwar = 0, kSse2 = 1, kAvx2 = 2 };

const char* SimdLevelName(SimdLevel level);

/// The kernel this process uses by default: the best level the CPU
/// supports, unless the build was configured with -DJPAR_FORCE_SWAR=ON
/// or the JPAR_DISABLE_SIMD environment switch is on (both force
/// kSwar). Decided once, at first call.
SimdLevel ActiveSimdLevel();

/// Every level that can run on this build + CPU, in ascending order.
/// Always contains kSwar; used by the differential tests and the
/// throughput bench to exercise each kernel.
std::vector<SimdLevel> SupportedSimdLevels();

/// simdjson-style stage-1 index over a JSON buffer: three bitmaps (one
/// bit per input byte, 64 bytes per word) recording
///   - unescaped quotes (string open/close positions),
///   - structural characters {}[],: outside string literals,
///   - newlines outside string literals (NDJSON record delimiters).
/// Escaped quotes are resolved with the carry-propagating odd-length
/// backslash-run trick; the in-string mask is the prefix XOR of the
/// quote bitmap. Building the index is a single forward pass at
/// near-memory-bandwidth; consumers then skip non-structural bytes
/// entirely.
///
/// The index is positional: queries take and return byte offsets into
/// the exact buffer it was built over. Immutable after Build; safe to
/// share across threads.
class StructuralIndex {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  StructuralIndex() = default;

  static StructuralIndex Build(std::string_view text) {
    return Build(text, ActiveSimdLevel());
  }
  /// Builds with an explicit kernel (tests/benchmarks). Requesting a
  /// level the CPU lacks falls back to the best supported one.
  static StructuralIndex Build(std::string_view text, SimdLevel level);

  size_t size() const { return n_; }

  // Membership predicates (white-box tests and debugging).
  bool IsOp(size_t pos) const { return TestBit(op_, pos); }
  bool IsQuote(size_t pos) const { return TestBit(quote_, pos); }
  bool IsNewline(size_t pos) const { return TestBit(newline_, pos); }

  /// True when `pos` lies inside a string literal per the quote bitmap
  /// (opening quote and body are inside; the closing quote is not).
  /// Degraded scans use this to detect that a malformed record left the
  /// mask claiming in-string at a resync point, which means the index
  /// for the remaining suffix must be rebuilt with fresh state.
  bool InString(size_t pos) const { return TestBit(in_string_, pos); }

  /// First position >= pos of each class; npos when exhausted.
  size_t NextOp(size_t pos) const { return NextBit(op_, pos); }
  size_t NextQuote(size_t pos) const { return NextBit(quote_, pos); }
  size_t NextNewline(size_t pos) const { return NextBit(newline_, pos); }
  size_t NextOpOrQuote(size_t pos) const;

  /// Appends a compact serialization (input length + the four bitmaps)
  /// to *out. This is the payload of the storage tier's tape sidecars
  /// (DESIGN.md §14) — an internal cache artifact, not an interchange
  /// format; LoadFrom only accepts what AppendTo wrote.
  void AppendTo(std::string* out) const;

  /// Exact byte count AppendTo produces for an index over `n` bytes.
  static size_t SerializedBytes(size_t n);

  /// Reconstructs the index from one AppendTo serialization. Returns
  /// false (leaving *this empty) on truncation or trailing bytes, so a
  /// corrupt sidecar degrades to a cache miss rather than an error.
  bool LoadFrom(std::string_view data);

 private:
  bool TestBit(const std::vector<uint64_t>& words, size_t pos) const {
    if (pos >= n_) return false;
    return (words[pos >> 6] >> (pos & 63)) & 1;
  }
  size_t NextBit(const std::vector<uint64_t>& words, size_t pos) const;

  size_t n_ = 0;
  std::vector<uint64_t> quote_;      // unescaped '"'
  std::vector<uint64_t> op_;         // {}[],: outside strings
  std::vector<uint64_t> newline_;    // '\n' outside strings
  std::vector<uint64_t> in_string_;  // string-literal interior mask
};

}  // namespace jpar

#endif  // JPAR_JSON_STRUCTURAL_INDEX_H_
