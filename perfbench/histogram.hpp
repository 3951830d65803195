// Log-bucketed histogram of non-negative integer samples (nanoseconds).
//
// Every sample is counted — there is no reservoir — so a percentile is
// exact up to its bucket: values below 64 get one bucket each, and each
// power of two above that is split into 64 linear sub-buckets, which bounds
// the bucket width at 1/64 of its lower edge. A percentile interpolates
// linearly inside the bucket that holds its rank, so it moves continuously
// with the data instead of snapping to bucket edges.
//
// Not thread-safe: each thread records into its own histogram and the
// owner merges them after the threads have joined.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace perfbench {

class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Samples are clamped to 2^40 ns (about 18 minutes).
  static constexpr int kMaxBits = 40;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  void record(std::int64_t value) noexcept {
    std::uint64_t v = value > 0 ? static_cast<std::uint64_t>(value) : 0;
    v = std::min(v, (std::uint64_t{1} << kMaxBits) - 1);
    ++buckets_[index(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return static_cast<double>(sum_); }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Samples strictly above the rank of percentile `p` (0 < p < 100).
  std::uint64_t beyond(double p) const noexcept {
    const auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
    return count_ > rank ? count_ - rank : 0;
  }

  /// A percentile is reported only when at least ten samples lie beyond it.
  bool reportable(double p) const noexcept { return beyond(p) >= 10; }

  /// Value at percentile `p`, interpolated within its bucket; 0 when empty.
  double percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      const double c = static_cast<double>(buckets_[i]);
      if (cum + c >= rank) {
        const double frac = std::clamp((rank - cum) / c, 0.0, 1.0);
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(kBuckets - 1) + width(kBuckets - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static double lower(std::size_t i) noexcept {
    const std::size_t group = i / kSub;
    const std::uint64_t sub = i % kSub;
    if (group == 0) return static_cast<double>(sub);
    return static_cast<double>((kSub + sub) << (group - 1));
  }
  static double width(std::size_t i) noexcept {
    const std::size_t group = i / kSub;
    return group == 0 ? 1.0 : static_cast<double>(std::uint64_t{1} << (group - 1));
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace perfbench
