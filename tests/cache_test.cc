// Property tests for the serving-router primitives in src/common:
//
//  - LruCache / ShardedLruCache: capacity, eviction order, and
//    hit/miss/eviction accounting invariants, pinned by randomized
//    operation sequences checked against a naive reference model;
//  - Hash64 / Hash64Mix: the stable content hash behind cache keys.
//
// The Cache* suites also run under TSan (tools/tsan_smoke.sh) to cover the
// sharded cache's per-shard locking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/lru_cache.h"
#include "common/rng.h"

namespace fkd {
namespace {

// ---- LRU cache --------------------------------------------------------------------

TEST(CacheTest, GetPromotesAndPutEvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(3);
  cache.Put(1, "one");
  cache.Put(2, "two");
  cache.Put(3, "three");

  // Touch 1 so 2 becomes the LRU victim.
  std::string value;
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, "one");

  cache.Put(4, "four");
  EXPECT_FALSE(cache.Contains(2)) << "LRU key must be the victim";
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.size(), 3u);

  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(CacheTest, PutExistingKeyUpdatesWithoutEviction) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // update, not insertion: nothing evicted
  EXPECT_EQ(cache.size(), 2u);
  int value = 0;
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, 11);
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(CacheTest, EraseAndClear) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  cache.Put(2, 2);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  int value = 0;
  EXPECT_FALSE(cache.Get(2, &value));
}

/// Reference model: the same contract implemented naively (ordered vector,
/// front = most recent). The real cache must agree with it exactly after
/// every operation of a randomized sequence.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Get(int key, int* value) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) {
        ++hits_;
        auto entry = entries_[i];
        entries_.erase(entries_.begin() + static_cast<long>(i));
        entries_.insert(entries_.begin(), entry);
        *value = entry.second;
        return true;
      }
    }
    ++misses_;
    return false;
  }

  void Put(int key, int value) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) {
        entries_.erase(entries_.begin() + static_cast<long>(i));
        entries_.insert(entries_.begin(), {key, value});
        return;
      }
    }
    if (entries_.size() >= capacity_) {
      ++evictions_;
      entries_.pop_back();
    }
    entries_.insert(entries_.begin(), {key, value});
  }

  bool Erase(int key) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) {
        entries_.erase(entries_.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }

  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  const std::vector<std::pair<int, int>>& entries() const { return entries_; }

 private:
  size_t capacity_;
  std::vector<std::pair<int, int>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

TEST(CacheTest, RandomizedOpsMatchReferenceModel) {
  // Small key space (32 keys, capacity 8) so every behaviour — hit, miss,
  // update, eviction, erase — fires constantly over 20k operations.
  constexpr size_t kCapacity = 8;
  constexpr int kKeySpace = 32;
  constexpr size_t kOps = 20000;

  LruCache<int, int> cache(kCapacity);
  ReferenceLru reference(kCapacity);
  Rng rng(20260806);

  for (size_t op = 0; op < kOps; ++op) {
    const int key = static_cast<int>(rng.UniformInt(kKeySpace));
    const double which = rng.Uniform();
    if (which < 0.45) {
      int got = 0;
      int expected = 0;
      const bool hit = cache.Get(key, &got);
      const bool expected_hit = reference.Get(key, &expected);
      ASSERT_EQ(hit, expected_hit) << "op " << op << " key " << key;
      if (hit) {
        ASSERT_EQ(got, expected);
      }
    } else if (which < 0.9) {
      const int value = static_cast<int>(op);
      cache.Put(key, value);
      reference.Put(key, value);
    } else {
      ASSERT_EQ(cache.Erase(key), reference.Erase(key));
    }
    // Capacity invariant holds after every single operation.
    ASSERT_LE(cache.size(), kCapacity);
    ASSERT_EQ(cache.size(), reference.size());
  }

  // Exact accounting: every Get was one hit or one miss, evictions agree.
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, reference.hits());
  EXPECT_EQ(stats.misses, reference.misses());
  EXPECT_EQ(stats.hits + stats.misses, reference.hits() + reference.misses());
  EXPECT_EQ(stats.evictions, reference.evictions());

  // Residency and recency order agree entry for entry.
  for (const auto& [key, value] : reference.entries()) {
    int got = 0;
    ASSERT_TRUE(cache.Get(key, &got)) << "key " << key << " missing";
    EXPECT_EQ(got, value);
  }
}

TEST(CacheTest, ShardedCapacityAndAccounting) {
  // 64 entries over 4 shards: each shard holds 16. Insert far more distinct
  // keys than capacity and verify residency stays bounded and accounting
  // stays exact.
  ShardedLruCache<uint64_t, uint64_t> cache(64, 4);
  EXPECT_EQ(cache.num_shards(), 4u);
  for (uint64_t key = 0; key < 1000; ++key) cache.Put(key, key * 3);

  LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 1000u);
  EXPECT_LE(stats.size, 64u);
  EXPECT_EQ(stats.size, stats.insertions - stats.evictions);

  uint64_t hits = 0;
  for (uint64_t key = 0; key < 1000; ++key) {
    uint64_t value = 0;
    if (cache.Get(key, &value)) {
      EXPECT_EQ(value, key * 3);
      ++hits;
    }
  }
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, 1000u - hits);
  EXPECT_EQ(stats.size, hits) << "exactly the resident keys hit";
}

TEST(CacheTest, ShardsCapAtCapacity) {
  // More shards than capacity: shard count folds down so no shard has zero
  // slots.
  ShardedLruCache<int, int> cache(3, 16);
  EXPECT_EQ(cache.num_shards(), 3u);
  cache.Put(1, 1);
  int value = 0;
  EXPECT_TRUE(cache.Get(1, &value));
}

TEST(CacheTest, ConcurrentReadersAndWritersKeepAccountingExact) {
  // 4 threads × 4k ops against a sharded cache; TSan covers the locking,
  // and the summed accounting must remain exact: every Get is one hit or
  // one miss, residency = insertions - evictions (no erases here).
  ShardedLruCache<uint64_t, uint64_t> cache(128, 8);
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 4000;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      Rng rng(1000 + t);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const uint64_t key = rng.UniformInt(512);
        if (rng.Bernoulli(0.5)) {
          uint64_t value = 0;
          if (cache.Get(key, &value)) {
            // Values are a pure function of the key, so a concurrent
            // overwrite can never surface a torn or mismatched value.
            EXPECT_EQ(value, key * 7);
            observed_hits.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Put(key, key * 7);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ((stats.hits + stats.misses) + (stats.insertions + stats.updates),
            kThreads * kOpsPerThread)
      << "every op was accounted exactly once";
  EXPECT_EQ(stats.size, stats.insertions - stats.evictions);
  EXPECT_LE(stats.size, 128u);
}

// ---- hashing ----------------------------------------------------------------------

TEST(HashTest, Hash64IsStableAndSensitive) {
  // The hash must be stable across platforms/runs (cache keys and the
  // canary split depend on it).
  EXPECT_EQ(Hash64("fakedetector"), Hash64("fakedetector"));
  EXPECT_NE(Hash64("fakedetector"), Hash64("fakedetectos"));
  EXPECT_NE(Hash64(""), Hash64("\0", 1));
  EXPECT_NE(Hash64Mix(1, 2), Hash64Mix(2, 1)) << "mix is order-sensitive";
}

}  // namespace
}  // namespace fkd
