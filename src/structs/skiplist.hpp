// Transactional skip list (the paper's SkipList benchmark): a sorted list
// with a tower of forward pointers per node; expected O(log n) search makes
// conflicts rarer than in List, which is exactly why the paper uses it as
// its low-conflict benchmark.
#pragma once

#include <array>
#include <climits>

#include "structs/intset.hpp"

namespace wstm::structs {

class SkipList final : public TxIntSet {
 public:
  static constexpr int kMaxLevel = 16;

  SkipList();
  ~SkipList() override;

  bool insert(stm::Tx& tx, long key) override;
  bool remove(stm::Tx& tx, long key) override;
  bool contains(stm::Tx& tx, long key) override;
  std::vector<long> quiescent_elements() const override;
  std::vector<const void*> quiescent_nodes() const override;
  std::string kind() const override { return "skiplist"; }

 private:
  struct NodeData;
  using Node = stm::TObject<NodeData>;

  struct NodeData {
    long key = LONG_MIN;
    int height = kMaxLevel;
    std::array<Node*, kMaxLevel> next{};  // next[l] valid for l < height
  };

  struct Search {
    std::array<Node*, kMaxLevel> preds{};
    std::array<const NodeData*, kMaxLevel> pred_data{};
    Node* found = nullptr;  // node with exactly `key`, if any
  };
  Search locate(stm::Tx& tx, long key);

  /// Geometric tower height in [1, kMaxLevel] (p = 1/2).
  static int random_height(Xoshiro256& rng);

  Node head_;  // sentinel, full height
};

}  // namespace wstm::structs
