#include "plan/logical_plan.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace robopt {

std::string_view ToString(Topology topology) {
  switch (topology) {
    case Topology::kPipeline: return "pipeline";
    case Topology::kJuncture: return "juncture";
    case Topology::kReplicate: return "replicate";
    case Topology::kLoop: return "loop";
  }
  return "unknown";
}

OperatorId LogicalPlan::Add(LogicalOperator op) {
  ROBOPT_CHECK(ops_.size() < kMaxPlanOperators);
  op.id = static_cast<OperatorId>(ops_.size());
  ops_.push_back(std::move(op));
  parents_.emplace_back();
  children_.emplace_back();
  side_parents_.emplace_back();
  side_children_.emplace_back();
  loop_.dirty.store(true);
  return ops_.back().id;
}

OperatorId LogicalPlan::Add(LogicalOpKind kind, std::string name,
                            UdfComplexity udf, double selectivity) {
  LogicalOperator op;
  op.kind = kind;
  op.name = std::move(name);
  op.udf = udf;
  op.selectivity = selectivity;
  return Add(std::move(op));
}

void LogicalPlan::Connect(OperatorId from, OperatorId to) {
  ROBOPT_CHECK(from < ops_.size() && to < ops_.size());
  children_[from].push_back(to);
  parents_[to].push_back(from);
  loop_.dirty.store(true);
}

void LogicalPlan::ConnectBroadcast(OperatorId from, OperatorId to) {
  ROBOPT_CHECK(from < ops_.size() && to < ops_.size());
  side_children_[from].push_back(to);
  side_parents_[to].push_back(from);
  loop_.dirty.store(true);
}

std::vector<OperatorId> LogicalPlan::AllParents(OperatorId id) const {
  std::vector<OperatorId> out = parents_[id];
  out.insert(out.end(), side_parents_[id].begin(), side_parents_[id].end());
  return out;
}

std::vector<OperatorId> LogicalPlan::AllChildren(OperatorId id) const {
  std::vector<OperatorId> out = children_[id];
  out.insert(out.end(), side_children_[id].begin(), side_children_[id].end());
  return out;
}

Status LogicalPlan::Validate() const {
  if (ops_.empty()) {
    return Status::InvalidArgument("plan has no operators");
  }
  for (const LogicalOperator& op : ops_) {
    const size_t num_in = parents_[op.id].size();
    const size_t num_out = children_[op.id].size();
    if (IsSource(op.kind)) {
      if (num_in != 0) {
        return Status::InvalidArgument("source " + op.name + " has inputs");
      }
      if (op.source_cardinality <= 0) {
        return Status::InvalidArgument("source " + op.name +
                                       " lacks a declared cardinality");
      }
    } else if (num_in == 0) {
      return Status::InvalidArgument("operator " + op.name + " has no input");
    }
    if (IsBinary(op.kind) && num_in != 2) {
      return Status::InvalidArgument("binary operator " + op.name +
                                     " must have exactly two inputs");
    }
    if (!IsBinary(op.kind) && !IsSource(op.kind) && num_in > 1 &&
        op.kind != LogicalOpKind::kLoopBegin) {
      return Status::InvalidArgument("operator " + op.name +
                                     " has too many inputs");
    }
    if (IsSink(op.kind) && num_out != 0) {
      return Status::InvalidArgument("sink " + op.name + " has outputs");
    }
    if (op.kind == LogicalOpKind::kLoopEnd) {
      if (op.loop_begin == kInvalidOperatorId || op.loop_begin >= ops_.size() ||
          ops_[op.loop_begin].kind != LogicalOpKind::kLoopBegin) {
        return Status::InvalidArgument("LoopEnd " + op.name +
                                       " is not paired with a LoopBegin");
      }
    }
    if (op.kind == LogicalOpKind::kLoopBegin && op.loop_iterations <= 0) {
      return Status::InvalidArgument("LoopBegin " + op.name +
                                     " needs loop_iterations > 0");
    }
  }
  // Acyclicity: a full topological order must exist.
  if (TopologicalOrder().size() != ops_.size()) {
    return Status::InvalidArgument("plan contains a cycle");
  }
  return Status::OK();
}

std::vector<OperatorId> LogicalPlan::SourceIds() const {
  std::vector<OperatorId> out;
  for (const LogicalOperator& op : ops_) {
    if (parents_[op.id].empty() && side_parents_[op.id].empty()) {
      out.push_back(op.id);
    }
  }
  return out;
}

std::vector<OperatorId> LogicalPlan::SinkIds() const {
  std::vector<OperatorId> out;
  for (const LogicalOperator& op : ops_) {
    if (children_[op.id].empty() && side_children_[op.id].empty()) {
      out.push_back(op.id);
    }
  }
  return out;
}

std::vector<OperatorId> LogicalPlan::TopologicalOrder() const {
  // Kahn's algorithm, with `order` itself as the FIFO queue.
  std::vector<int> pending(ops_.size());
  std::vector<OperatorId> order;
  order.reserve(ops_.size());
  for (const LogicalOperator& op : ops_) {
    pending[op.id] = static_cast<int>(parents_[op.id].size() +
                                      side_parents_[op.id].size());
    if (pending[op.id] == 0) order.push_back(op.id);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const OperatorId id = order[head];
    for (OperatorId child : children_[id]) {
      if (--pending[child] == 0) order.push_back(child);
    }
    for (OperatorId child : side_children_[id]) {
      if (--pending[child] == 0) order.push_back(child);
    }
  }
  return order;
}

LogicalPlan::LoopCache::LoopCache(const LoopCache& other) {
  std::lock_guard<std::mutex> lock(other.mu);
  dirty.store(other.dirty.load());
  in_loop = other.in_loop;
  iters = other.iters;
}

LogicalPlan::LoopCache& LogicalPlan::LoopCache::operator=(
    const LoopCache& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu, other.mu);
  dirty.store(other.dirty.load());
  in_loop = other.in_loop;
  iters = other.iters;
  return *this;
}

void LogicalPlan::ComputeLoopMembership() const {
  if (!loop_.dirty.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(loop_.mu);
  if (!loop_.dirty.load(std::memory_order_relaxed)) return;
  std::vector<uint8_t>& in_loop = loop_.in_loop;
  std::vector<int>& loop_iters = loop_.iters;
  in_loop.assign(ops_.size(), 0);
  loop_iters.assign(ops_.size(), 1);
  // An operator is in a loop body if it is forward-reachable from a LoopBegin
  // and its matching LoopEnd is forward-reachable from the operator.
  for (const LogicalOperator& op : ops_) {
    if (op.kind != LogicalOpKind::kLoopEnd) continue;
    const OperatorId begin = op.loop_begin;
    if (begin == kInvalidOperatorId) continue;
    // Reachable-from-begin set.
    std::vector<uint8_t> from_begin(ops_.size(), 0);
    std::deque<OperatorId> queue = {begin};
    from_begin[begin] = 1;
    while (!queue.empty()) {
      OperatorId cur = queue.front();
      queue.pop_front();
      for (OperatorId child : AllChildren(cur)) {
        if (!from_begin[child]) {
          from_begin[child] = 1;
          queue.push_back(child);
        }
      }
    }
    // Backward from the end, restricted to from_begin.
    std::vector<uint8_t> to_end(ops_.size(), 0);
    queue = {op.id};
    to_end[op.id] = 1;
    while (!queue.empty()) {
      OperatorId cur = queue.front();
      queue.pop_front();
      for (OperatorId parent : AllParents(cur)) {
        if (!to_end[parent] && from_begin[parent]) {
          to_end[parent] = 1;
          queue.push_back(parent);
        }
      }
    }
    const int iterations = std::max(1, ops_[begin].loop_iterations);
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (from_begin[i] && to_end[i]) {
        in_loop[i] = 1;
        loop_iters[i] *= iterations;  // Nested loops multiply.
      }
    }
  }
  loop_.dirty.store(false, std::memory_order_release);
}

bool LogicalPlan::InLoop(OperatorId id) const {
  ComputeLoopMembership();
  return loop_.in_loop[id] != 0;
}

int LogicalPlan::LoopIterations(OperatorId id) const {
  ComputeLoopMembership();
  return loop_.iters[id];
}

std::vector<OperatorId> LogicalPlan::LoopBody(OperatorId begin) const {
  ROBOPT_CHECK(begin < ops_.size() &&
               ops_[begin].kind == LogicalOpKind::kLoopBegin);
  OperatorId end = kInvalidOperatorId;
  for (const LogicalOperator& op : ops_) {
    if (op.kind == LogicalOpKind::kLoopEnd && op.loop_begin == begin) {
      end = op.id;
      break;
    }
  }
  ROBOPT_CHECK(end != kInvalidOperatorId);
  // Forward-reachable from begin AND backward-reachable from end.
  std::vector<uint8_t> from_begin(ops_.size(), 0);
  std::deque<OperatorId> queue = {begin};
  from_begin[begin] = 1;
  while (!queue.empty()) {
    OperatorId cur = queue.front();
    queue.pop_front();
    for (OperatorId child : AllChildren(cur)) {
      if (!from_begin[child]) {
        from_begin[child] = 1;
        queue.push_back(child);
      }
    }
  }
  std::vector<uint8_t> to_end(ops_.size(), 0);
  queue = {end};
  to_end[end] = 1;
  while (!queue.empty()) {
    OperatorId cur = queue.front();
    queue.pop_front();
    for (OperatorId parent : AllParents(cur)) {
      if (!to_end[parent] && from_begin[parent]) {
        to_end[parent] = 1;
        queue.push_back(parent);
      }
    }
  }
  std::vector<OperatorId> body;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (from_begin[i] && to_end[i]) body.push_back(static_cast<OperatorId>(i));
  }
  return body;
}

std::vector<Topology> LogicalPlan::OperatorTopologies() const {
  ComputeLoopMembership();
  std::vector<Topology> out(ops_.size(), Topology::kPipeline);
  for (const LogicalOperator& op : ops_) {
    if (loop_.in_loop[op.id]) {
      out[op.id] = Topology::kLoop;
    } else if (parents_[op.id].size() >= 2) {
      out[op.id] = Topology::kJuncture;
    } else if (children_[op.id].size() >= 2) {
      out[op.id] = Topology::kReplicate;
    }
  }
  return out;
}

TopologyCounts LogicalPlan::CountTopologies() const {
  const std::vector<Topology> tags = OperatorTopologies();
  TopologyCounts counts;
  // Loops count once per LoopBegin; junctures/replicates once per tagged
  // operator; pipelines once per maximal chain of pipeline-tagged operators
  // (Fig. 3(a) yields 3 pipelines + 1 juncture).
  std::vector<uint8_t> visited(ops_.size(), 0);
  for (const LogicalOperator& op : ops_) {
    switch (tags[op.id]) {
      case Topology::kJuncture:
        ++counts.juncture;
        break;
      case Topology::kReplicate:
        ++counts.replicate;
        break;
      case Topology::kLoop:
        if (op.kind == LogicalOpKind::kLoopBegin) ++counts.loop;
        break;
      case Topology::kPipeline: {
        if (visited[op.id]) break;
        // Flood-fill the maximal pipeline segment containing `op`.
        std::deque<OperatorId> queue = {op.id};
        visited[op.id] = 1;
        while (!queue.empty()) {
          OperatorId cur = queue.front();
          queue.pop_front();
          for (OperatorId next : children_[cur]) {
            if (!visited[next] && tags[next] == Topology::kPipeline) {
              visited[next] = 1;
              queue.push_back(next);
            }
          }
          for (OperatorId prev : parents_[cur]) {
            if (!visited[prev] && tags[prev] == Topology::kPipeline) {
              visited[prev] = 1;
              queue.push_back(prev);
            }
          }
        }
        ++counts.pipeline;
        break;
      }
    }
  }
  return counts;
}

std::string LogicalPlan::DebugString() const {
  std::string out = "LogicalPlan (" + std::to_string(ops_.size()) + " ops)\n";
  for (const LogicalOperator& op : ops_) {
    out += "  o" + std::to_string(op.id) + " " + std::string(ToString(op.kind));
    if (!op.name.empty()) out += "(" + op.name + ")";
    out += "  parents:[";
    for (size_t i = 0; i < parents_[op.id].size(); ++i) {
      if (i > 0) out += ",";
      out += "o" + std::to_string(parents_[op.id][i]);
    }
    out += "]\n";
  }
  return out;
}

}  // namespace robopt
