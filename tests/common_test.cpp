// Unit tests for src/common: Status/Result, bitset, byte codec, string
// pool, PRNG, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "common/bitset.hpp"
#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "common/thread_pool.hpp"

namespace gems {
namespace {

// ---- Status / Result ----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = parse_error("unexpected ')'");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.to_string(), "ParseError: unexpected ')'");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = not_found("no column 'x'").with_context("binding query");
  EXPECT_EQ(s.message(), "binding query: no column 'x'");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(Status::ok().with_context("ctx").is_ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = io_error("disk gone");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

Result<int> half(int x) {
  if (x % 2 != 0) return invalid_argument("odd");
  return x / 2;
}

Result<int> quarter(int x) {
  GEMS_ASSIGN_OR_RETURN(int h, half(x));
  GEMS_ASSIGN_OR_RETURN(int q, half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(quarter(8).value(), 2);
  EXPECT_FALSE(quarter(6).is_ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(quarter(7).is_ok());
}

// ---- DynamicBitset --------------------------------------------------------

TEST(BitsetTest, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitsetTest, InitialValueTrueRespectsSize) {
  DynamicBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.any());
}

TEST(BitsetTest, SetAllClearsTrailingBits) {
  DynamicBitset b(65);
  b.set_all();
  EXPECT_EQ(b.count(), 65u);
}

TEST(BitsetTest, AndOrSubtract) {
  DynamicBitset a(100), b(100);
  a.set(1);
  a.set(50);
  a.set(99);
  b.set(50);
  b.set(60);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 4u);
  DynamicBitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_FALSE(d.test(50));
}

TEST(BitsetTest, ForEachVisitsAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> want = {3, 63, 64, 128, 199};
  for (auto i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitsetTest, ResizeGrowWithValue) {
  DynamicBitset b(10);
  b.set(3);
  b.resize(100, true);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(4));  // old region keeps old values
  EXPECT_TRUE(b.test(10));  // new region filled with true
  EXPECT_TRUE(b.test(99));
  EXPECT_EQ(b.count(), 91u);
}

TEST(BitsetTest, ToIndices) {
  DynamicBitset b(10);
  b.set(2);
  b.set(7);
  EXPECT_EQ(b.to_indices(), (std::vector<std::uint32_t>{2, 7}));
}

TEST(BitsetTest, IntersectChangedReportsShrink) {
  DynamicBitset a(130), b(130);
  a.set(1);
  a.set(64);
  a.set(129);
  b.set_all();
  EXPECT_FALSE(a.intersect_changed(b));  // superset: no change
  EXPECT_EQ(a.count(), 3u);
  DynamicBitset c(130);
  c.set(1);
  c.set(129);
  EXPECT_TRUE(a.intersect_changed(c));  // drops bit 64
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.test(64));
  EXPECT_FALSE(a.intersect_changed(c));  // idempotent
}

TEST(BitsetTest, ForEachInRangeCoversExactlyTheWords) {
  DynamicBitset b(300);
  const std::vector<std::size_t> want = {0, 63, 64, 127, 128, 191, 299};
  for (auto i : want) b.set(i);
  // Words [1, 3) cover bits [64, 192).
  std::vector<std::size_t> got;
  b.for_each_in_range(1, 3, [&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<std::size_t>{64, 127, 128, 191}));
  // Whole-range iteration equals for_each.
  got.clear();
  b.for_each_in_range(0, b.num_words(), [&](std::size_t i) {
    got.push_back(i);
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(b.num_words(), 5u);  // ceil(300 / 64)
}

// ---- ByteWriter / ByteReader ---------------------------------------------

/// Fails unless `got` holds exactly `want` (doubles compare by bits, so
/// -0.0 and NaN payloads count).
template <class T>
Status expect_value(Result<T> got, const T& want) {
  if (!got.is_ok()) return got.status();
  bool same;
  if constexpr (std::is_same_v<T, double>) {
    same = std::bit_cast<std::uint64_t>(*got) ==
           std::bit_cast<std::uint64_t>(want);
  } else {
    same = *got == want;
  }
  return same ? Status::ok() : internal_error("decoded a different value");
}

/// Expects the codec's rejection: a kParseError carrying a byte offset.
void expect_rejected(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), StatusCode::kParseError)
      << what << ": " << status.to_string();
  EXPECT_NE(status.message().find("byte offset"), std::string::npos)
      << what << ": " << status.to_string();
}

TEST(ByteReaderTest, RoundTripsRejectsTruncationAndHostileCounts) {
  // One field of a mixed record: how to write it, and how to read it back
  // and check the value.
  struct Field {
    const char* name;
    std::function<void(ByteWriter&)> write;
    std::function<Status(ByteReader&)> read;
  };
  const std::vector<std::uint8_t> blob = {0, 1, 0xFF};
  const std::vector<std::uint32_t> ids = {7, 0xFFFFFFFFu, 0};
  const double nan = std::bit_cast<double>(0x7FF8000000000123ull);
  const std::vector<Field> fields = {
      {"u8", [](ByteWriter& w) { w.u8(0xAB); },
       [](ByteReader& r) { return expect_value<std::uint8_t>(r.u8(), 0xAB); }},
      {"u16", [](ByteWriter& w) { w.u16(0xBEEF); },
       [](ByteReader& r) {
         return expect_value<std::uint16_t>(r.u16(), 0xBEEF);
       }},
      {"u32", [](ByteWriter& w) { w.u32(0xDEADBEEFu); },
       [](ByteReader& r) {
         return expect_value<std::uint32_t>(r.u32(), 0xDEADBEEFu);
       }},
      {"u64", [](ByteWriter& w) { w.u64(~0ull - 1); },
       [](ByteReader& r) {
         return expect_value<std::uint64_t>(r.u64(), ~0ull - 1);
       }},
      {"i64", [](ByteWriter& w) { w.i64(-42); },
       [](ByteReader& r) { return expect_value<std::int64_t>(r.i64(), -42); }},
      {"f64 -0.0", [](ByteWriter& w) { w.f64(-0.0); },
       [](ByteReader& r) { return expect_value<double>(r.f64(), -0.0); }},
      {"f64 NaN", [nan](ByteWriter& w) { w.f64(nan); },
       [nan](ByteReader& r) { return expect_value<double>(r.f64(), nan); }},
      {"bool", [](ByteWriter& w) { w.boolean(true); },
       [](ByteReader& r) { return expect_value<bool>(r.boolean(), true); }},
      {"str", [](ByteWriter& w) { w.str("hello"); },
       [](ByteReader& r) {
         return expect_value<std::string>(r.str(), "hello");
       }},
      {"empty str", [](ByteWriter& w) { w.str(""); },
       [](ByteReader& r) { return expect_value<std::string>(r.str(), ""); }},
      {"blob", [&blob](ByteWriter& w) { w.blob(blob); },
       [&blob](ByteReader& r) { return expect_value(r.blob(), blob); }},
      {"raw bytes", [&blob](ByteWriter& w) { w.raw(blob.data(), blob.size()); },
       [&blob](ByteReader& r) -> Status {
         GEMS_ASSIGN_OR_RETURN(auto got, r.bytes(blob.size(), "raw bytes"));
         return expect_value(
             Result<std::vector<std::uint8_t>>(
                 std::vector<std::uint8_t>(got.begin(), got.end())),
             blob);
       }},
      {"pod_array", [&ids](ByteWriter& w) {
         w.pod_array<std::uint32_t>(ids);
       },
       [&ids](ByteReader& r) {
         return expect_value(r.pod_array<std::uint32_t>("ids"), ids);
       }},
      {"count + array", [&ids](ByteWriter& w) {
         w.u32(static_cast<std::uint32_t>(ids.size()));
         w.raw(ids.data(), ids.size() * sizeof(ids[0]));
       },
       [&ids](ByteReader& r) -> Status {
         GEMS_ASSIGN_OR_RETURN(std::uint32_t n, r.count("ids", 4));
         return expect_value(r.array<std::uint32_t>(n, "ids"), ids);
       }},
  };

  // Every primitive round-trips on its own, consuming exactly its bytes.
  for (const Field& f : fields) {
    ByteWriter w;
    f.write(w);
    ByteReader r(w.buffer());
    EXPECT_TRUE(f.read(r).is_ok()) << f.name;
    EXPECT_TRUE(r.at_end()) << f.name;
  }

  // The mixed record decodes whole, and truncation at every byte fails
  // with the offset of the field that ran short.
  ByteWriter record;
  for (const Field& f : fields) f.write(record);
  const std::vector<std::uint8_t> bytes = record.take();
  auto read_all = [&](std::span<const std::uint8_t> input) {
    ByteReader r(input, "record");
    for (const Field& f : fields) GEMS_RETURN_IF_ERROR(f.read(r));
    return r.at_end() ? Status::ok() : internal_error("trailing bytes");
  };
  ASSERT_TRUE(read_all(bytes).is_ok());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    expect_rejected(read_all({bytes.data(), cut}),
                    "truncation at byte " + std::to_string(cut));
  }

  // Lengths and counts past the remaining bytes are rejected before
  // anything is allocated from them — including counts whose byte size
  // n * sizeof(T) overflows (an unchecked allocation would throw).
  struct Hostile {
    const char* name;
    std::function<void(ByteWriter&)> write;
    std::function<Status(ByteReader&)> read;
  };
  const std::vector<Hostile> hostile = {
      {"count 2^32-1", [](ByteWriter& w) { w.u32(0xFFFFFFFFu); w.u64(0); },
       [](ByteReader& r) { return r.count("items").status(); }},
      {"count of 8-byte elements", [](ByteWriter& w) { w.u32(2); w.u64(0); },
       [](ByteReader& r) { return r.count("items", 8).status(); }},
      {"str length 2^32-1", [](ByteWriter& w) { w.u32(0xFFFFFFFFu); w.u8(1); },
       [](ByteReader& r) { return r.str().status(); }},
      {"blob length", [](ByteWriter& w) { w.u32(5); w.u32(0); },
       [](ByteReader& r) { return r.blob().status(); }},
      {"bytes", [](ByteWriter& w) { w.u32(0); },
       [](ByteReader& r) { return r.bytes(5, "bytes").status(); }},
      {"pod_array count 2^32-1",
       [](ByteWriter& w) { w.u64(0xFFFFFFFFull); w.u64(0); },
       [](ByteReader& r) {
         return r.pod_array<std::uint64_t>("words").status();
       }},
      {"pod_array count overflowing n * 8",
       [](ByteWriter& w) { w.u64((1ull << 61) + 1); w.u64(0); },
       [](ByteReader& r) {
         return r.pod_array<std::uint64_t>("words").status();
       }},
      {"pod_array count u64 max",
       [](ByteWriter& w) { w.u64(~0ull); w.u32(0); },
       [](ByteReader& r) {
         return r.pod_array<std::uint32_t>("codes").status();
       }},
      {"array count overflowing n * 8", [](ByteWriter& w) { w.u64(0); },
       [](ByteReader& r) {
         return r.array<std::uint64_t>((1ull << 61) + 1, "words").status();
       }},
  };
  for (const Hostile& h : hostile) {
    ByteWriter w;
    h.write(w);
    ByteReader r(w.buffer());
    expect_rejected(h.read(r), h.name);
  }

  // A count that fits exactly is accepted.
  ByteWriter fits;
  fits.u32(2);
  fits.u64(0);
  fits.u64(0);
  ByteReader r(fits.buffer());
  EXPECT_TRUE(r.count("items", 8).is_ok());

  // Decoders' own checks share the message shape.
  const Status bad = ByteReader(bytes, "IR").error("bad expr tag", 12);
  EXPECT_EQ(bad.code(), StatusCode::kParseError);
  EXPECT_EQ(bad.message(), "malformed IR: bad expr tag at byte offset 12");
}

// ---- StringPool -----------------------------------------------------------

TEST(StringPoolTest, InternDeduplicates) {
  StringPool pool;
  const StringId a = pool.intern("hello");
  const StringId b = pool.intern("world");
  const StringId c = pool.intern("hello");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.view(a), "hello");
  EXPECT_EQ(pool.view(b), "world");
}

TEST(StringPoolTest, FindWithoutInterning) {
  StringPool pool;
  EXPECT_EQ(pool.find("missing"), kInvalidStringId);
  const StringId a = pool.intern("present");
  EXPECT_EQ(pool.find("present"), a);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPoolTest, EmptyStringIsInternable) {
  StringPool pool;
  const StringId a = pool.intern("");
  EXPECT_EQ(pool.view(a), "");
}

TEST(StringPoolTest, ByteSizeAccumulates) {
  StringPool pool;
  pool.intern("abc");
  pool.intern("de");
  pool.intern("abc");  // duplicate: not counted twice
  EXPECT_EQ(pool.byte_size(), 5u);
}

TEST(StringPoolTest, ConcurrentInternIsConsistent) {
  StringPool pool;
  ThreadPool workers(4);
  std::vector<std::future<void>> futs;
  std::array<std::array<StringId, 100>, 4> ids{};
  for (int t = 0; t < 4; ++t) {
    futs.push_back(workers.submit([&pool, &ids, t] {
      for (int i = 0; i < 100; ++i) {
        ids[t][i] = pool.intern("str" + std::to_string(i));
      }
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(pool.size(), 100u);
  for (int t = 1; t < 4; ++t) EXPECT_EQ(ids[t], ids[0]);
}

TEST(StringPoolTest, ConcurrentViewWhileInterning) {
  // One writer interns past several directory blocks (256, 512, 1024, ...
  // entries) and arena chunks (every 97th string is wider than the first
  // chunk); readers view every id published so far, with no lock.
  StringPool pool;
  constexpr int kStrings = 5000;
  auto text = [](StringId id) {
    return "s" + std::to_string(id) +
           std::string(id % 97 == 0 ? 5000 : id % 13, 'x');
  };
  std::atomic<std::int64_t> published{-1};
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> views{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t n = 0;
      for (StringId probe = static_cast<StringId>(t);
           !done.load(std::memory_order_acquire); probe = probe * 31 + 7) {
        const std::int64_t last = published.load(std::memory_order_acquire);
        if (last < 0) continue;
        const StringId id = probe % static_cast<StringId>(last + 1);
        if (pool.view(id) != text(id)) mismatches.fetch_add(1);
        ++n;
      }
      views.fetch_add(n);
    });
  }
  for (int i = 0; i < kStrings; ++i) {
    const StringId id = pool.intern(text(static_cast<StringId>(i)));
    EXPECT_EQ(id, static_cast<StringId>(i));
    published.store(id, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(views.load(), 0u);
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kStrings));
  pool.for_each([&](StringId id, std::string_view s) {
    if (s != text(id)) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- PRNG -------------------------------------------------------------------

TEST(PrngTest, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(PrngTest, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(PrngTest, RangeInclusive) {
  Xoshiro256 rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(PrngTest, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRangesDeterministicChunks) {
  ThreadPool pool(4);
  // Chunk boundaries depend only on (n, num_chunks), never on worker
  // scheduling — the matcher's determinism rests on this.
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> seen;
  pool.parallel_for_ranges(103, 4, [&](std::size_t chunk, std::size_t begin,
                                       std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({chunk, begin, end});
  });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::array<std::size_t, 3>> want = {
      {0, 0, 26}, {1, 26, 52}, {2, 52, 78}, {3, 78, 103}};
  EXPECT_EQ(seen, want);
}

TEST(ThreadPoolTest, ParallelForRangesSkipsEmptyChunks) {
  ThreadPool pool(4);
  // n < num_chunks: trailing chunks are empty and must not be invoked.
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> seen;
  pool.parallel_for_ranges(3, 8, [&](std::size_t chunk, std::size_t begin,
                                     std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({chunk, begin, end});
  });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::array<std::size_t, 3>> want = {
      {0, 0, 1}, {1, 1, 2}, {2, 2, 3}};
  EXPECT_EQ(seen, want);

  pool.parallel_for_ranges(0, 4, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "must not be called for an empty range";
  });
}

// ---- hash -----------------------------------------------------------------

TEST(HashTest, Mix64SpreadsSequentialValues) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 1000u);
}

TEST(HashTest, PairHashDistinguishesOrder) {
  PairHash h;
  EXPECT_NE(h(std::make_pair(1, 2)), h(std::make_pair(2, 1)));
}

}  // namespace
}  // namespace gems
