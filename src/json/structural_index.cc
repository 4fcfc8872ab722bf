#include "json/structural_index.h"

#include <bit>
#include <cstring>

#include "common/env.h"

#if defined(__x86_64__) && !defined(JPAR_FORCE_SWAR)
#define JPAR_HAVE_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace jpar {

namespace {

/// Raw per-64-byte-block character bitmaps: bit i describes byte i of
/// the block, before escape/string resolution.
struct BlockBits {
  uint64_t backslash = 0;
  uint64_t quote = 0;
  uint64_t op = 0;
  uint64_t newline = 0;
};

using BlockFn = BlockBits (*)(const unsigned char*);

// ---- Portable SWAR kernel ------------------------------------------

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// High bit of each byte set where the byte equals `c`. Uses the exact
/// per-byte zero detector — Mycroft's `(x - kOnes) & ~x & kHighs` has
/// cross-byte borrow false positives (a byte equal to c^0x01 directly
/// above a true match gets flagged too), which matters here because
/// '[' / ']' / '{' / '}' pairs differ by exactly one bit.
inline uint64_t MatchBytes(uint64_t word, char c) {
  uint64_t x = word ^ (kOnes * static_cast<uint8_t>(c));
  constexpr uint64_t kLow7 = ~kHighs;
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Gathers the per-byte high bits of `m` into the low 8 bits (a SWAR
/// movemask: byte i -> bit i). The shifted products land on 64 distinct
/// bit positions, so the multiply cannot carry.
inline uint64_t PackHighBits(uint64_t m) {
  return ((m >> 7) * 0x0102040810204080ull) >> 56;
}

BlockBits SwarBlock(const unsigned char* p) {
  BlockBits b;
  for (int w = 0; w < 8; ++w) {
    uint64_t word = LoadLe64(p + 8 * w);
    int shift = 8 * w;
    b.backslash |= PackHighBits(MatchBytes(word, '\\')) << shift;
    b.quote |= PackHighBits(MatchBytes(word, '"')) << shift;
    b.newline |= PackHighBits(MatchBytes(word, '\n')) << shift;
    uint64_t op = MatchBytes(word, '{') | MatchBytes(word, '}') |
                  MatchBytes(word, '[') | MatchBytes(word, ']') |
                  MatchBytes(word, ',') | MatchBytes(word, ':');
    b.op |= PackHighBits(op) << shift;
  }
  return b;
}

// ---- x86 kernels ---------------------------------------------------
//
// Compiled with per-function target attributes so the translation unit
// stays buildable without -mavx2 and the binary stays runnable on CPUs
// without AVX2 (runtime dispatch picks the kernel).

#if defined(JPAR_HAVE_X86_KERNELS)

inline uint64_t Match16(__m128i v, char c) {
  return static_cast<uint16_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(c))));
}

BlockBits Sse2Block(const unsigned char* p) {
  BlockBits b;
  for (int k = 0; k < 4; ++k) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * k));
    int shift = 16 * k;
    b.backslash |= Match16(v, '\\') << shift;
    b.quote |= Match16(v, '"') << shift;
    b.newline |= Match16(v, '\n') << shift;
    uint64_t op = Match16(v, '{') | Match16(v, '}') | Match16(v, '[') |
                  Match16(v, ']') | Match16(v, ',') | Match16(v, ':');
    b.op |= op << shift;
  }
  return b;
}

__attribute__((target("avx2"))) inline uint64_t Match32(__m256i v, char c) {
  return static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(c))));
}

__attribute__((target("avx2"))) BlockBits Avx2Block(const unsigned char* p) {
  BlockBits b;
  for (int k = 0; k < 2; ++k) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    int shift = 32 * k;
    b.backslash |= Match32(v, '\\') << shift;
    b.quote |= Match32(v, '"') << shift;
    b.newline |= Match32(v, '\n') << shift;
    uint64_t op = Match32(v, '{') | Match32(v, '}') | Match32(v, '[') |
                  Match32(v, ']') | Match32(v, ',') | Match32(v, ':');
    b.op |= op << shift;
  }
  return b;
}

#endif  // JPAR_HAVE_X86_KERNELS

// ---- Escape / string resolution ------------------------------------

/// Returns the bitmap of escaped positions: characters preceded by an
/// odd-length backslash run. `prev_odd` (0 or 1) carries a run that
/// ends one block with odd length into the next. This is the
/// carry-propagating odd/even-sequence trick from simdjson stage 1.
inline uint64_t EscapedPositions(uint64_t bs_bits, uint64_t* prev_odd) {
  constexpr uint64_t kEvenBits = 0x5555555555555555ull;
  constexpr uint64_t kOddBits = ~kEvenBits;
  uint64_t start_edges = bs_bits & ~(bs_bits << 1);
  uint64_t even_start_mask = kEvenBits ^ *prev_odd;
  uint64_t even_starts = start_edges & even_start_mask;
  uint64_t odd_starts = start_edges & ~even_start_mask;
  uint64_t even_carries = bs_bits + even_starts;
  uint64_t odd_carries;
  bool ends_odd = __builtin_add_overflow(bs_bits, odd_starts, &odd_carries);
  odd_carries |= *prev_odd;
  *prev_odd = ends_odd ? 1 : 0;
  uint64_t even_carry_ends = even_carries & ~bs_bits;
  uint64_t odd_carry_ends = odd_carries & ~bs_bits;
  uint64_t even_start_odd_end = even_carry_ends & kOddBits;
  uint64_t odd_start_even_end = odd_carry_ends & kEvenBits;
  return even_start_odd_end | odd_start_even_end;
}

/// Prefix XOR within a word: bit p of the result is the parity of bits
/// [0, p] of the input. Applied to the quote bitmap this yields the
/// in-string mask (opening quote and string body set, closing quote
/// clear).
inline uint64_t PrefixXor(uint64_t x) {
  x ^= x << 1;
  x ^= x << 2;
  x ^= x << 4;
  x ^= x << 8;
  x ^= x << 16;
  x ^= x << 32;
  return x;
}

SimdLevel DetectActiveLevel() {
#if defined(JPAR_FORCE_SWAR)
  return SimdLevel::kSwar;
#else
  if (EnvFlagSet("JPAR_DISABLE_SIMD")) return SimdLevel::kSwar;
#if defined(JPAR_HAVE_X86_KERNELS)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
#endif
  return SimdLevel::kSwar;
#endif
}

BlockFn KernelFor(SimdLevel level) {
#if defined(JPAR_HAVE_X86_KERNELS)
  if (level == SimdLevel::kAvx2 && __builtin_cpu_supports("avx2")) {
    return Avx2Block;
  }
  if (level >= SimdLevel::kSse2 && __builtin_cpu_supports("sse2")) {
    return Sse2Block;
  }
#else
  (void)level;
#endif
  return SwarBlock;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSwar:
      return "swar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = DetectActiveLevel();
  return level;
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kSwar};
#if defined(JPAR_HAVE_X86_KERNELS)
  if (__builtin_cpu_supports("sse2")) levels.push_back(SimdLevel::kSse2);
  if (__builtin_cpu_supports("avx2")) levels.push_back(SimdLevel::kAvx2);
#endif
  return levels;
}

StructuralIndex StructuralIndex::Build(std::string_view text,
                                       SimdLevel level) {
  BlockFn kernel = KernelFor(level);
  StructuralIndex idx;
  idx.n_ = text.size();
  size_t words = (idx.n_ + 63) >> 6;
  idx.quote_.assign(words, 0);
  idx.op_.assign(words, 0);
  idx.newline_.assign(words, 0);
  idx.in_string_.assign(words, 0);
  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(text.data());
  uint64_t prev_odd_backslash = 0;
  uint64_t in_string_carry = 0;  // ~0 when the previous block ends in-string
  for (size_t w = 0; w < words; ++w) {
    size_t base = w << 6;
    BlockBits raw;
    if (base + 64 <= idx.n_) {
      raw = kernel(data + base);
    } else {
      unsigned char tail[64] = {0};  // '\0' padding matches no class
      std::memcpy(tail, data + base, idx.n_ - base);
      raw = kernel(tail);
    }
    uint64_t escaped = EscapedPositions(raw.backslash, &prev_odd_backslash);
    uint64_t quotes = raw.quote & ~escaped;
    uint64_t in_string = PrefixXor(quotes) ^ in_string_carry;
    in_string_carry =
        static_cast<uint64_t>(static_cast<int64_t>(in_string) >> 63);
    idx.quote_[w] = quotes;
    idx.op_[w] = raw.op & ~in_string;
    idx.newline_[w] = raw.newline & ~in_string;
    idx.in_string_[w] = in_string;
  }
  return idx;
}

size_t StructuralIndex::NextBit(const std::vector<uint64_t>& words,
                                size_t pos) const {
  if (pos >= n_) return npos;
  size_t w = pos >> 6;
  uint64_t word = words[w] & (~uint64_t{0} << (pos & 63));
  while (word == 0) {
    if (++w == words.size()) return npos;
    word = words[w];
  }
  return (w << 6) + static_cast<size_t>(std::countr_zero(word));
}

size_t StructuralIndex::NextOpOrQuote(size_t pos) const {
  if (pos >= n_) return npos;
  size_t w = pos >> 6;
  uint64_t word = (op_[w] | quote_[w]) & (~uint64_t{0} << (pos & 63));
  while (word == 0) {
    if (++w == op_.size()) return npos;
    word = op_[w] | quote_[w];
  }
  return (w << 6) + static_cast<size_t>(std::countr_zero(word));
}

namespace {

void AppendWords(const std::vector<uint64_t>& words, std::string* out) {
  for (uint64_t w : words) {
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(w >> (8 * i));
    out->append(buf, 8);
  }
}

bool ReadWords(std::string_view data, size_t* pos, size_t count,
               std::vector<uint64_t>* words) {
  if (data.size() - *pos < count * 8) return false;
  words->resize(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      w |= static_cast<uint64_t>(
               static_cast<unsigned char>(data[*pos + 8 * i + b]))
           << (8 * b);
    }
    (*words)[i] = w;
  }
  *pos += count * 8;
  return true;
}

}  // namespace

size_t StructuralIndex::SerializedBytes(size_t n) {
  return 8 + 4 * (((n + 63) >> 6) * 8);
}

void StructuralIndex::AppendTo(std::string* out) const {
  char len[8];
  for (int i = 0; i < 8; ++i) {
    len[i] = static_cast<char>(static_cast<uint64_t>(n_) >> (8 * i));
  }
  out->append(len, 8);
  AppendWords(quote_, out);
  AppendWords(op_, out);
  AppendWords(newline_, out);
  AppendWords(in_string_, out);
}

bool StructuralIndex::LoadFrom(std::string_view data) {
  *this = StructuralIndex();
  if (data.size() < 8) return false;
  uint64_t n = 0;
  for (int i = 0; i < 8; ++i) {
    n |= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  // Bound n before SerializedBytes to keep corrupt headers from
  // overflowing the size arithmetic.
  if (n > (data.size() - 8) * 16 || data.size() != SerializedBytes(n)) {
    return false;
  }
  size_t words = (static_cast<size_t>(n) + 63) >> 6;
  size_t pos = 8;
  if (!ReadWords(data, &pos, words, &quote_) ||
      !ReadWords(data, &pos, words, &op_) ||
      !ReadWords(data, &pos, words, &newline_) ||
      !ReadWords(data, &pos, words, &in_string_)) {
    *this = StructuralIndex();
    return false;
  }
  n_ = static_cast<size_t>(n);
  return true;
}

}  // namespace jpar
