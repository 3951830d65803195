// Transactionally sorted singly-linked list (the paper's List benchmark,
// after the IntSet benchmark of the original DSTM paper). Every node is a
// TObject; traversal opens each node for reading (visible reads), insert/
// remove open the affected nodes for writing.
#pragma once

#include <climits>

#include "structs/intset.hpp"

namespace wstm::structs {

class IntSetList final : public TxIntSet {
 public:
  IntSetList();
  ~IntSetList() override;

  bool insert(stm::Tx& tx, long key) override;
  bool remove(stm::Tx& tx, long key) override;
  bool contains(stm::Tx& tx, long key) override;
  std::vector<long> quiescent_elements() const override;
  std::vector<const void*> quiescent_nodes() const override;
  std::string kind() const override { return "list"; }

 private:
  struct NodeData;
  using Node = stm::TObject<NodeData>;

  struct NodeData {
    long key = LONG_MIN;
    Node* next = nullptr;
  };

  /// Positions the cursor at the first node with key >= `key`.
  struct Cursor {
    Node* prev;
    const NodeData* prev_data;
    Node* curr;               // null = end of list
    const NodeData* curr_data;  // null iff curr is null
  };
  Cursor locate(stm::Tx& tx, long key);

  Node head_;  // sentinel, key = LONG_MIN
};

}  // namespace wstm::structs
