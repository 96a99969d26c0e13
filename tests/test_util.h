// Shared test fixtures.

#ifndef ECODB_TESTS_TEST_UTIL_H_
#define ECODB_TESTS_TEST_UTIL_H_

#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "ecodb/ecodb.h"

namespace ecodb::testing {

/// Tiny TPC-H database (fast to generate; ~6k lineitem rows).
inline constexpr double kTestSf = 0.002;

inline std::unique_ptr<Database> MakeTestDb(
    EngineProfile profile = EngineProfile::MySqlMemory(),
    double sf = kTestSf) {
  DatabaseOptions opt;
  opt.profile = std::move(profile);
  auto db = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  Status st = db->LoadTpch(gen);
  if (!st.ok()) return nullptr;
  return db;
}

/// A small standalone table: t(k INT, v DOUBLE, s STRING) with rows
/// (i, i*1.5, "s<i%mod>") for i in [0, n).
inline Table* MakeSimpleTable(Catalog* catalog, const std::string& name,
                              int n, int mod = 5) {
  Schema schema({Field("k", ValueType::kInt64), Field("v", ValueType::kDouble),
                 Field("s", ValueType::kString, 8)});
  auto result = catalog->CreateTable(name, schema);
  if (!result.ok()) return nullptr;
  Table* t = result.value();
  for (int i = 0; i < n; ++i) {
    Status st = t->AppendRow({Value::Int(i), Value::Dbl(i * 1.5),
                              Value::Str("s" + std::to_string(i % mod))});
    if (!st.ok()) return nullptr;
  }
  (void)catalog->FinalizeLoad(name);
  return t;
}

/// Constructs two *different* two-column int64 keys with an identical
/// full 64-bit HashRowKey, by inverting the hash combine for the second
/// column. Returns false when std::hash<int64_t> is not invertible here
/// (callers should GTEST_SKIP). Used by the hash-collision regression
/// tests for join and group-by tables.
inline bool MakeCollidingKeyPair(Row* key1, Row* key2) {
  const int64_t a1 = 1, b1 = 2, a2 = 3;
  const size_t target = HashCombineKey(
      HashCombineKey(kRowKeyHashSeed, Value::Int(a1).Hash()),
      Value::Int(b1).Hash());
  const size_t h1 = HashCombineKey(kRowKeyHashSeed, Value::Int(a2).Hash());
  // Solve HashCombineKey(h1, hb) == target for the second column's hash.
  const size_t needed_hash =
      (target ^ h1) - 0x9E3779B9 - (h1 << 6) - (h1 >> 2);
  const int64_t b2 = static_cast<int64_t>(needed_hash);
  if (Value::Int(b2).Hash() != needed_hash) return false;
  *key1 = Row{Value::Int(a1), Value::Int(b1)};
  *key2 = Row{Value::Int(a2), Value::Int(b2)};
  return true;
}

/// Constructs an 8-byte string whose std::hash equals that of `base` (a
/// different string), by inverting libstdc++'s 64-bit _Hash_bytes for one
/// aligned 8-byte block. Returns false when the standard library hashes
/// strings differently (callers should GTEST_SKIP). Used to put two
/// dictionary strings in one hash-table chain.
inline bool MakeCollidingString(const std::string& base, std::string* out) {
  if (base.size() == 8) return false;  // the result must differ from base
  const uint64_t mul = (uint64_t{0xc6a4a793} << 32) + 0x5bd1e995;
  uint64_t inv = mul;  // Newton iteration for mul^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inv *= 2 - mul * inv;
  const auto shift_mix = [](uint64_t v) { return v ^ (v >> 47); };
  // Forward: h = seed ^ (8 * mul); h = (h ^ data) * mul, with data =
  // shift_mix(block * mul) * mul; then shift_mix(shift_mix(h) * mul).
  // shift_mix is its own inverse, so every step runs backwards.
  const uint64_t target = std::hash<std::string>{}(base);
  const uint64_t h = shift_mix(shift_mix(target) * inv);
  const uint64_t data = (h * inv) ^ (uint64_t{0xc70f6907} ^ (8 * mul));
  const uint64_t block = shift_mix(data * inv) * inv;
  std::string s(8, '\0');
  std::memcpy(&s[0], &block, 8);
  if (std::hash<std::string>{}(s) != target) return false;
  *out = std::move(s);
  return true;
}

}  // namespace ecodb::testing

#endif  // ECODB_TESTS_TEST_UTIL_H_
