#ifndef FKD_TESTS_CALLBACK_PROBE_H_
#define FKD_TESTS_CALLBACK_PROBE_H_

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "serve/engine.h"

namespace fkd {
namespace testing {

/// Records the runs of one completion callback: how many, the last result,
/// and the thread it ran on.
class CallbackProbe {
 public:
  serve::ClassificationCallback Callback() {
    return [this](Result<serve::Classification> result) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++calls_;
      thread_ = std::this_thread::get_id();
      result_ = std::move(result);
      cv_.notify_all();
    };
  }

  /// Waits (bounded) for the first run and returns its result.
  Result<serve::Classification> Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30),
                      [this] { return calls_ > 0; })) {
      return Status::DeadlineExceeded("callback never ran");
    }
    return *result_;
  }

  int calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

  std::thread::id thread() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return thread_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int calls_ = 0;
  std::thread::id thread_;
  std::optional<Result<serve::Classification>> result_;
};

/// Two answers to the same request must agree to the bit: class, version,
/// cache provenance and every probability.
inline void ExpectSameScores(const serve::Classification& a,
                             const serve::Classification& b) {
  EXPECT_EQ(a.class_id, b.class_id);
  EXPECT_EQ(a.class_name, b.class_name);
  EXPECT_EQ(a.model_version, b.model_version);
  EXPECT_EQ(a.from_cache, b.from_cache);
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  EXPECT_EQ(std::memcmp(a.probabilities.data(), b.probabilities.data(),
                        a.probabilities.size() * sizeof(float)),
            0);
}

}  // namespace testing
}  // namespace fkd

#endif  // FKD_TESTS_CALLBACK_PROBE_H_
