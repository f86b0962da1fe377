#ifndef RELDIV_EXEC_KERNELS_KERNELS_H_
#define RELDIV_EXEC_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/row_codec.h"
#include "common/tuple.h"
#include "common/value.h"
#include "exec/batch.h"

namespace reldiv {
namespace kernels {

/// Vectorized inner-loop kernels shared by the division operators and the
/// sort family. Every kernel exists in two variants — a scalar reference
/// implementation and a SIMD one — selected once per process by
/// ActiveLevel(); callers use the dispatching entry points and never branch
/// on the level themselves.
///
/// Counter-accounting invariant (DESIGN.md §12): kernels perform PHYSICAL
/// work only and never touch ExecContext counters. The caller charges the
/// Table 1 operations the replaced scalar loop would have charged — one Hash
/// per probe key, one Bit per word initialized/tested, one Comp per count
/// compare — so scalar and SIMD runs produce bit-identical counter totals.
///
/// Layering: kernels may depend on common/ and exec/batch.h but never on
/// Operator — no virtual NextBatch dispatch inside a kernel (enforced by
/// tools/lint.py `kernel-virtual-next`).

/// Which implementation the dispatching kernels resolved to.
enum class Level {
  kScalar,
  kSimd,
};

/// The level selected for this process: the SIMD variants when the CPU
/// supports them, unless RELDIV_KERNELS=scalar forces the reference
/// implementations (RELDIV_KERNELS=simd asks for SIMD and still falls back
/// to scalar on unsupported hardware). Resolved once, then constant.
Level ActiveLevel();

/// "scalar" / "simd" for gauges and bench labels.
const char* LevelName(Level level);

/// True when the SIMD variants are usable on this CPU (AVX2).
bool SimdAvailable();

// --- Batched probe hashing --------------------------------------------------

/// The probe hash of a single-int64-key tuple, in closed form:
/// HashInt64Key(k) == Tuple{Value::Int64(k)}.HashAt({0}) for every k — the
/// exact value TupleHashTable::ProbeHash computes on the single-int64-column
/// fast path (kernels_test pins the equality). Keeping the composition in
/// one place lets the batched kernel and the scalar probe agree bit for bit.
inline uint64_t HashInt64Key(int64_t key) {
  const uint64_t value_hash =
      HashCombine(static_cast<uint64_t>(ValueType::kInt64) + 1,
                  Hash64(static_cast<uint64_t>(key)));
  return HashCombine(Tuple::kHashSeed, value_hash);
}

/// out[i] = HashInt64Key(keys[i]) for i in [0, n).
void HashInt64Keys(const int64_t* keys, size_t n, uint64_t* out);
void HashInt64KeysScalar(const int64_t* keys, size_t n, uint64_t* out);
void HashInt64KeysSimd(const int64_t* keys, size_t n, uint64_t* out);

// --- Bitmap word kernels ----------------------------------------------------

/// True iff the first `num_bits` bits of `words` are all set; whole words
/// are tested and the trailing partial word is masked — the semantics of
/// Bitmap::AllSet (the scalar reference these are tested against).
bool AllWordsSet(const uint64_t* words, size_t num_bits);
bool AllWordsSetScalar(const uint64_t* words, size_t num_bits);
bool AllWordsSetSimd(const uint64_t* words, size_t num_bits);

/// Total set bits over `num_words` whole words.
uint64_t PopcountWords(const uint64_t* words, size_t num_words);
uint64_t PopcountWordsScalar(const uint64_t* words, size_t num_words);
uint64_t PopcountWordsSimd(const uint64_t* words, size_t num_words);

/// Zeroes `num_words` words (bit-map initialization).
void ClearWords(uint64_t* words, size_t num_words);

// --- Count-filter compare kernel --------------------------------------------

/// Comparison predicates of the compare kernel.
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

/// mask[i] = (values[i] <op> rhs) ? 1 : 0 for i in [0, n); returns the
/// number of matches. The caller counts one Comp per element.
size_t CompareInt64(const int64_t* values, size_t n, CmpOp op, int64_t rhs,
                    uint8_t* mask);
size_t CompareInt64Scalar(const int64_t* values, size_t n, CmpOp op,
                          int64_t rhs, uint8_t* mask);
size_t CompareInt64Simd(const int64_t* values, size_t n, CmpOp op,
                        int64_t rhs, uint8_t* mask);

// --- Column extraction (row-batch bridge) -----------------------------------

/// Gathers column `col` of the batch's live prefix into `out` iff every
/// value in that column is an int64; returns false (leaving `out`
/// unspecified) otherwise, and the caller takes the generic tuple path.
/// Uncounted: eligibility checks and gathers are Moves the scalar path pays
/// identically via Value copies, and the accounting model charges neither.
bool ExtractInt64Column(const TupleBatch& batch, size_t col,
                        std::vector<int64_t>* out);

// --- Normalized sort keys (offset-value-code style) --------------------------

/// Order-preserving 64-bit key word of one RowCodec-encoded field of type
/// `type` (`field` points at the field's bytes), memoized by the sort so
/// most comparisons resolve on integer compares (Do/Graefe/Naughton's
/// normalized-key technique). Within one column (one type):
///
///   NormalizedKey(a) <  NormalizedKey(b)  =>  a.Compare(b) < 0
///   NormalizedKey(a) == NormalizedKey(b)  =>  for int64, a == b (exact);
///                                             otherwise nothing — the
///                                             caller compares the fields.
///
/// int64 maps through the sign-flipped bijection; doubles always map to one
/// word (their NaN ordering is not total, so no prefix is safe); strings
/// contribute their first eight bytes big-endian, zero-padded.
/// Inline: computed once per row the sort encodes or reads back.
inline uint64_t NormalizedKey(ValueType type, const char* field) {
  // Words are compared only within one column, so no type tag is needed and
  // every payload bit is kept. Words must never order two values the full
  // comparison would not: int64 uses the sign-flipped bijection (so equal
  // words mean equal values); double collapses to one word (NaN makes any
  // prefix unsafe); strings use their first eight bytes big-endian, so a
  // byte-wise word difference agrees with std::string order and every
  // prefix tie falls back.
  switch (type) {
    case ValueType::kInt64:
      return RowCodec::LoadU64(field) ^ (uint64_t{1} << 63);
    case ValueType::kDouble:
      return 0;
    case ValueType::kString: {
      const uint32_t len = RowCodec::LoadU32(field);
      const size_t take = len < 8 ? len : 8;
      uint64_t word = 0;
      for (size_t i = 0; i < take; ++i) {
        word |= static_cast<uint64_t>(static_cast<unsigned char>(field[4 + i]))
                << (56 - 8 * i);
      }
      return word;
    }
  }
  return 0;
}

}  // namespace kernels
}  // namespace reldiv

#endif  // RELDIV_EXEC_KERNELS_KERNELS_H_
