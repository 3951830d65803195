// The orec engine's log index: a pointer -> log-position map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wstm::stm {

/// Open-addressed pointer→index map, generation-stamped so the per-attempt
/// reset is O(1) (no clearing); capacity persists across attempts, matching
/// the log vectors' allocation discipline. The orec engine indexes its read
/// log by orec-word address and its write log by object address.
class PtrIndex {
 public:
  static constexpr std::uint32_t kNotFound = UINT32_MAX;

  void reset() noexcept {
    ++gen_;
    size_ = 0;
  }

  /// Index of `key` in the indexed log, or kNotFound when absent.
  std::uint32_t find(const void* key) const noexcept {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return kNotFound;  // empty in this generation
      if (s.key == key) return s.idx;
    }
  }

  /// Pre: `key` is absent. `idx` is its position in the indexed log.
  void insert(const void* key, std::uint32_t idx) {
    if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].gen == gen_) i = (i + 1) & mask;
    slots_[i] = Slot{key, idx, gen_};
    ++size_;
  }

 private:
  struct Slot {
    const void* key;
    std::uint32_t idx;
    std::uint64_t gen;
  };

  static std::size_t hash(const void* key) noexcept {
    // Fibonacci hash over the pointer bits above the allocation alignment.
    std::uint64_t v = reinterpret_cast<std::uintptr_t>(key) >> 4;
    v *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(v ^ (v >> 29));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    // gen_ starts at 1, so zero-filled slots read as empty.
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{nullptr, 0, 0});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = hash(s.key) & mask;
      while (slots_[i].gen == gen_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t gen_ = 1;
};

}  // namespace wstm::stm
