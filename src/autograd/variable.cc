#include "autograd/variable.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/thread_pool.h"

namespace nerglob::ag {

std::atomic<uint64_t> Node::next_order_{0};

void Var::Backward() const {
  NERGLOB_CHECK(node_ != nullptr) << "Backward() from a NoGradScope value";
  NERGLOB_CHECK(!InParallelRegion())
      << "autograd Backward() must not run inside a ParallelFor body: the "
         "tape mutates shared gradient state, so training is single-threaded "
         "(inference-parallel, training-serial)";
  NERGLOB_CHECK(rows() == 1 && cols() == 1)
      << "Backward() must start from a scalar (1x1) variable";

  // Collect the reachable subgraph.
  std::vector<Node*> nodes;
  std::unordered_set<Node*> seen;
  std::vector<NodePtr> stack = {node_};
  seen.insert(node_.get());
  while (!stack.empty()) {
    NodePtr n = stack.back();
    stack.pop_back();
    nodes.push_back(n.get());
    for (const NodePtr& p : n->parents_) {
      if (seen.insert(p.get()).second) stack.push_back(p);
    }
  }

  // Seed and run in reverse creation order (a valid reverse-topo order).
  std::sort(nodes.begin(), nodes.end(),
            [](const Node* a, const Node* b) { return a->order_ > b->order_; });
  node_->EnsureGrad();
  node_->grad_.At(0, 0) += 1.0f;
  for (Node* n : nodes) {
    if (n->backward_fn_ && n->grad_.size() > 0) n->backward_fn_(*n);
  }
}

void Var::ZeroGrad() const {
  NERGLOB_CHECK(node_ != nullptr);
  node_->grad_ = Matrix();
}

Var Constant(Matrix value) { return Var(std::move(value), /*requires_grad=*/false); }

Var Scalar(float value) {
  Matrix m(1, 1);
  m.At(0, 0) = value;
  return Constant(std::move(m));
}

}  // namespace nerglob::ag
