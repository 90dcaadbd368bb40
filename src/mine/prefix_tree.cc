#include "mine/prefix_tree.h"

#include <algorithm>
#include <functional>
#include <string>

#include "util/check.h"
#include "util/status.h"

namespace topkrgs {

PrefixTree::PrefixTree(uint32_t num_positions) {
  nodes_.push_back(Node{});  // synthetic root
  headers_.resize(num_positions);
}

void PrefixTree::InsertPath(const uint32_t* path, size_t len, uint32_t count) {
  tuple_count_ += count;
  int32_t current = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t pos = path[i];
    // Find a child of `current` with this position.
    int32_t child = nodes_[current].first_child;
    while (child != -1 && nodes_[child].pos != pos) {
      child = nodes_[child].next_sibling;
    }
    if (child == -1) {
      child = static_cast<int32_t>(nodes_.size());
      Node node;
      node.pos = pos;
      node.parent = current;
      node.next_sibling = nodes_[current].first_child;
      node.header_next = headers_[pos].head;
      nodes_.push_back(node);
      nodes_[current].first_child = child;
      headers_[pos].head = child;
    }
    nodes_[child].count += count;
    headers_[pos].freq += count;
    current = child;
  }
}

PrefixTree PrefixTree::BuildRoot(const DiscreteDataset& data,
                                 const std::vector<RowId>& order,
                                 const Bitset& items) {
  const uint32_t n = data.num_rows();
  TOPKRGS_CHECK(order.size() == n, "order must cover all rows");
  std::vector<uint32_t> position_of(n);
  for (uint32_t pos = 0; pos < n; ++pos) position_of[order[pos]] = pos;

  PrefixTree tree(n);
  std::vector<uint32_t> path;
  items.ForEach([&](size_t item) {
    path.clear();
    data.item_rows(static_cast<ItemId>(item)).ForEach([&](size_t row) {
      path.push_back(position_of[row]);
    });
    // Descending positions: conditional trees then contain only the rows
    // ordered after the projection row.
    std::sort(path.begin(), path.end(), std::greater<uint32_t>());
    tree.InsertPath(path.data(), path.size(), 1);
  });
  tree.ValidateInvariants();
  return tree;
}

bool PrefixTree::CheckInvariants(std::string* error) const {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (nodes_.empty()) {
    // Default-constructed placeholder: no root, no tuples, no headers.
    if (tuple_count_ != 0 || !headers_.empty()) {
      return fail("placeholder tree carries tuples or headers");
    }
    return true;
  }
  if (nodes_[0].parent != -1) return fail("root node has a parent");

  const auto node_index_ok = [this](int32_t i) {
    return i >= -1 && i < static_cast<int32_t>(nodes_.size());
  };
  std::vector<uint64_t> child_count_sum(nodes_.size(), 0);
  std::vector<uint32_t> pos_node_count(headers_.size(), 0);
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (!node_index_ok(node.parent) || node.parent == -1) {
      return fail("node " + std::to_string(i) + " has invalid parent");
    }
    if (!node_index_ok(node.first_child) || !node_index_ok(node.next_sibling) ||
        !node_index_ok(node.header_next)) {
      return fail("node " + std::to_string(i) + " has an out-of-range link");
    }
    if (node.pos >= headers_.size()) {
      return fail("node " + std::to_string(i) + " position " +
                  std::to_string(node.pos) + " outside the row order");
    }
    // Descending enumeration order along every path (§4.2): a child holds
    // a strictly smaller position than its non-root parent.
    if (node.parent != 0 &&
        node.pos >= nodes_[node.parent].pos) {
      return fail("path positions not strictly descending at node " +
                  std::to_string(i));
    }
    child_count_sum[node.parent] += node.count;
    ++pos_node_count[node.pos];
  }
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].count < child_count_sum[i]) {
      return fail("node " + std::to_string(i) + " count " +
                  std::to_string(nodes_[i].count) +
                  " smaller than its children's sum " +
                  std::to_string(child_count_sum[i]));
    }
  }
  // Child lists: every node must be reachable from its parent's chain
  // exactly once (a cycle or a stray sibling link would double-count
  // projections).
  std::vector<uint8_t> seen(nodes_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    size_t steps = 0;
    for (int32_t child = nodes_[i].first_child; child != -1;
         child = nodes_[child].next_sibling) {
      if (++steps > nodes_.size()) {
        return fail("child list of node " + std::to_string(i) + " cycles");
      }
      if (nodes_[child].parent != static_cast<int32_t>(i)) {
        return fail("node " + std::to_string(child) +
                    " linked under a foreign parent chain");
      }
      if (seen[child]++) {
        return fail("node " + std::to_string(child) +
                    " appears in two child lists");
      }
    }
  }
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (!seen[i]) {
      return fail("node " + std::to_string(i) + " unreachable from any parent");
    }
  }
  // Header chains: chain of pos visits exactly the nodes with that pos,
  // and freq is their count sum — the quantity freq() feeds to Step 10.
  uint64_t first_level_sum = 0;
  for (int32_t child = nodes_[0].first_child; child != -1;
       child = nodes_[child].next_sibling) {
    first_level_sum += nodes_[child].count;
  }
  for (uint32_t pos = 0; pos < headers_.size(); ++pos) {
    uint64_t chain_sum = 0;
    uint32_t chain_nodes = 0;
    size_t steps = 0;
    for (int32_t node = headers_[pos].head; node != -1;
         node = nodes_[node].header_next) {
      if (++steps > nodes_.size()) {
        return fail("header chain of position " + std::to_string(pos) +
                    " cycles");
      }
      if (nodes_[node].pos != pos) {
        return fail("header chain of position " + std::to_string(pos) +
                    " visits a node of position " +
                    std::to_string(nodes_[node].pos));
      }
      chain_sum += nodes_[node].count;
      ++chain_nodes;
    }
    if (chain_nodes != pos_node_count[pos]) {
      return fail("header chain of position " + std::to_string(pos) +
                  " misses nodes of that position");
    }
    if (chain_sum != headers_[pos].freq) {
      return fail("freq(" + std::to_string(pos) + ") = " +
                  std::to_string(headers_[pos].freq) +
                  " but header chain counts sum to " +
                  std::to_string(chain_sum));
    }
  }
  // Zero-length tuples bump tuple_count_ without creating nodes, so the
  // first level bounds the total from below only.
  if (tuple_count_ < first_level_sum) {
    return fail("tuple_count " + std::to_string(tuple_count_) +
                " smaller than first-level count sum " +
                std::to_string(first_level_sum));
  }
  return true;
}

void PrefixTree::ValidateInvariants() const {
#if TOPKRGS_DCHECK_IS_ON()
  std::string error;
  TKRGS_DCHECK(CheckInvariants(&error), error.c_str());
#endif
}

PrefixTree PrefixTree::Conditional(uint32_t pos) const {
  PrefixTree out(num_positions());
  std::vector<uint32_t> path;
  for (int32_t node = headers_[pos].head; node != -1;
       node = nodes_[node].header_next) {
    const uint32_t count = nodes_[node].count;
    if (count == 0) continue;
    // Prefix path above this node: ascending positions while climbing, so
    // the reversed buffer is the descending path to insert.
    path.clear();
    for (int32_t up = nodes_[node].parent; up != 0; up = nodes_[up].parent) {
      path.push_back(nodes_[up].pos);
    }
    std::reverse(path.begin(), path.end());
    out.InsertPath(path.data(), path.size(), count);
  }
  return out;
}

}  // namespace topkrgs
