// Unit tests for src/util: hashing, IPs, strings, RNG, time intervals.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/ip.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/time.h"

namespace dp {
namespace {

TEST(TimeInterval, ContainsIsHalfOpen) {
  const TimeInterval iv{10, 20};
  EXPECT_FALSE(iv.contains(9));
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
}

TEST(TimeInterval, OpenEndedContainsFarFuture) {
  const TimeInterval iv{5, kTimeInfinity};
  EXPECT_TRUE(iv.open_ended());
  EXPECT_TRUE(iv.contains(1'000'000'000));
  EXPECT_FALSE(iv.contains(4));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 1000 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hash, ChecksumHexIsStableAndDistinct) {
  const std::string a = checksum_hex("mapper-v1 bytecode");
  const std::string b = checksum_hex("mapper-v2 bytecode");
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a, checksum_hex("mapper-v1 bytecode"));
  EXPECT_NE(a, b);
}

TEST(Ipv4, ParseAndFormatRoundTrip) {
  const auto ip = Ipv4::parse("4.3.2.1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "4.3.2.1");
  EXPECT_EQ(ip->octet(0), 4);
  EXPECT_EQ(ip->octet(3), 1);
}

TEST(Ipv4, RejectsMalformed) {
  EXPECT_FALSE(Ipv4::parse("4.3.2").has_value());
  EXPECT_FALSE(Ipv4::parse("4.3.2.256").has_value());
  EXPECT_FALSE(Ipv4::parse("4.3.2.1.5").has_value());
  EXPECT_FALSE(Ipv4::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4::parse("4.3.2.1 ").has_value());
}

TEST(IpPrefix, ScenarioSdn1PrefixSemantics) {
  // The paper's SDN1 bug: 4.3.2.0/23 written as 4.3.2.0/24. The /24 must
  // cover 4.3.2.1 but not 4.3.3.1; the /23 covers both.
  const auto narrow = IpPrefix::parse("4.3.2.0/24");
  const auto wide = IpPrefix::parse("4.3.2.0/23");
  ASSERT_TRUE(narrow && wide);
  const Ipv4 good(4, 3, 2, 1);
  const Ipv4 bad(4, 3, 3, 1);
  EXPECT_TRUE(narrow->contains(good));
  EXPECT_FALSE(narrow->contains(bad));
  EXPECT_TRUE(wide->contains(good));
  EXPECT_TRUE(wide->contains(bad));
  EXPECT_TRUE(wide->covers(*narrow));
  EXPECT_FALSE(narrow->covers(*wide));
}

TEST(IpPrefix, NormalizesHostBits) {
  const IpPrefix p(Ipv4(10, 1, 2, 200), 16);
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(IpPrefix, ZeroLengthCoversEverything) {
  const IpPrefix any(Ipv4(0, 0, 0, 0), 0);
  EXPECT_TRUE(any.contains(Ipv4(255, 255, 255, 255)));
  EXPECT_TRUE(any.contains(Ipv4(0, 0, 0, 1)));
}

TEST(IpPrefix, Slash32MatchesExactlyOneAddress) {
  const IpPrefix host(Ipv4(9, 9, 9, 9), 32);
  EXPECT_TRUE(host.contains(Ipv4(9, 9, 9, 9)));
  EXPECT_FALSE(host.contains(Ipv4(9, 9, 9, 8)));
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinAndStartsWith) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_TRUE(starts_with("f_matches", "f_"));
  EXPECT_FALSE(starts_with("matches", "f_"));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KB");
}

TEST(Logging, DisabledLevelNeverEvaluatesOperands) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  int calls = 0;
  auto expensive = [&calls] {
    ++calls;
    return 42;
  };
  DP_DEBUG << "value=" << expensive();
  DP_WARN << "value=" << expensive();
  EXPECT_EQ(calls, 0);  // whole statement short-circuited
  DP_ERROR << "enabled level evaluates once: " << expensive();
  EXPECT_EQ(calls, 1);
  set_log_level(saved);
}

TEST(Logging, MacroIsSafeInUnbracedIfElse) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);
  int branch = 0;
  // Dangling-else check: the else must bind to the outer if, not to
  // anything inside the macro expansion.
  if (branch == 0)
    DP_DEBUG << "taken";
  else
    branch = 1;
  EXPECT_EQ(branch, 0);
  set_log_level(saved);
}

TEST(Logging, ConcurrentEmissionIsSafe) {
  const LogLevel saved = log_level();
  // Emits for real (stderr): each line is one stdio call, so TSan-clean and
  // never interleaved within a line. Keep the volume small.
  set_log_level(LogLevel::kError);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 3; ++i) {
        DP_ERROR << "logging-test thread=" << t << " i=" << i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  set_log_level(saved);
}

// ------------------------------------------------------------ FlatMap32 --

/// Every key lands on one home slot: the whole map is a single probe run,
/// so insert, lookup and backward-shift erase all work at their worst case.
struct CollidingHash32 {
  std::uint64_t operator()(std::uint32_t) const { return 7; }
};

/// Drives a FlatMap32 and a std::unordered_map oracle through the same
/// random inserts, updates, erases and lookups (with repeated growth), then
/// checks they agree entry for entry.
template <typename Hash>
void check_flat_map_against_oracle(std::uint64_t seed, std::uint32_t universe,
                                   int ops) {
  FlatMap32<std::vector<std::uint32_t>, Hash> map;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> oracle;
  Rng rng{seed};
  for (int op = 0; op < ops; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(universe));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // insert-or-append (operator[] default-constructs)
        map[key].push_back(static_cast<std::uint32_t>(op));
        oracle[key].push_back(static_cast<std::uint32_t>(op));
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(map.erase(key), oracle.erase(key) == 1) << "key " << key;
        break;
      }
      default: {  // find
        const auto* found = map.find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << "key " << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "key " << key;
        }
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
  }
  // Growth never leaves the map more than 3/4 full.
  EXPECT_LE(map.size() * 4, map.capacity() * 3);
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t key, const std::vector<std::uint32_t>& v) {
    ++visited;
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << "key " << key;
    EXPECT_EQ(v, it->second) << "key " << key;
  });
  EXPECT_EQ(visited, oracle.size());
  for (const auto& [key, values] : oracle) {
    const auto* found = map.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, values);
  }
}

TEST(FlatMap32, RandomOpsAgreeWithUnorderedMapOracle) {
  for (const std::uint64_t seed : {1u, 2026u, 0xd1ff9u}) {
    // A small universe churns erase/re-insert; a large one drives growth
    // through many doublings with sequential-ish ids like TupleRefs.
    check_flat_map_against_oracle<IdentityHash32>(seed, 64, 4000);
    check_flat_map_against_oracle<IdentityHash32>(seed, 1u << 20, 20000);
  }
}

TEST(FlatMap32, ForcedCollisionsStillSeparateKeys) {
  for (const std::uint64_t seed : {3u, 4u}) {
    check_flat_map_against_oracle<CollidingHash32>(seed, 200, 3000);
  }
}

TEST(FlatMap32, SequentialKeysGrowAndEraseCleanly) {
  FlatMap32<std::int64_t> map;
  for (std::uint32_t k = 0; k < 10000; ++k) map[k] = k * 3;
  EXPECT_EQ(map.size(), 10000u);
  EXPECT_EQ(map.capacity(), 16384u);  // sized by entries, not by key range
  for (std::uint32_t k = 0; k < 10000; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_FALSE(map.erase(0));
  for (std::uint32_t k = 0; k < 10000; ++k) {
    const std::int64_t* v = map.find(k);
    if (k % 2 == 0) {
      EXPECT_EQ(v, nullptr) << k;
    } else {
      ASSERT_NE(v, nullptr) << k;
      EXPECT_EQ(*v, k * 3);
    }
  }
  for (std::uint32_t k = 1; k < 10000; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), nullptr);
  map[5] = 1;
  EXPECT_EQ(*map.find(5), 1);
}

}  // namespace
}  // namespace dp
