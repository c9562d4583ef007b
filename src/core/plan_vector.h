#ifndef ROBOPT_CORE_PLAN_VECTOR_H_
#define ROBOPT_CORE_PLAN_VECTOR_H_

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/feature_schema.h"
#include "plan/cardinality.h"
#include "plan/logical_plan.h"

namespace robopt {

/// Set of operator ids — the scope `s` of a plan vector enumeration
/// (Definition 1).
using Scope = std::bitset<kMaxPlanOperators>;

/// A plan vector enumeration V = (s, V): a scope plus a *contiguous pool* of
/// plan vectors, one row per alternative execution of the scoped sub-plan.
///
/// Three parallel pools per row:
///   - `features`   : `width` floats — the ML-ready plan vector (Fig. 5);
///   - `assignment` : one byte per plan operator — chosen execution
///                    alternative + 1, 0 where the operator is outside the
///                    scope (this is what unvectorize reads, and what the
///                    pruning footprint is derived from);
///   - `switches`   : running platform-switch count (TDGEN's beta-pruning).
///
/// Contiguity is the point: merge is a flat float-array addition the
/// compiler auto-vectorizes, and prune hands the whole feature pool to the
/// ML model in one batch call — no per-subplan transformation (the paper's
/// central performance argument, Section IV).
class PlanVectorEnumeration {
 public:
  PlanVectorEnumeration(size_t width, size_t num_ops)
      : width_(width), num_ops_(num_ops) {}

  size_t size() const { return size_; }
  size_t width() const { return width_; }
  size_t num_ops() const { return num_ops_; }

  const Scope& scope() const { return scope_; }
  Scope& mutable_scope() { return scope_; }

  /// Boundary operators of the scope, ascending. Shared by all rows;
  /// computed by the enumeration operations when the scope changes.
  const std::vector<OperatorId>& boundary() const { return boundary_; }
  void set_boundary(std::vector<OperatorId> boundary) {
    boundary_ = std::move(boundary);
  }

  float* features(size_t row) { return features_.data() + row * width_; }
  const float* features(size_t row) const {
    return features_.data() + row * width_;
  }
  const std::vector<float>& feature_pool() const { return features_; }

  uint8_t* assignment(size_t row) { return assign_.data() + row * num_ops_; }
  const uint8_t* assignment(size_t row) const {
    return assign_.data() + row * num_ops_;
  }

  uint16_t switches(size_t row) const { return switches_[row]; }
  void set_switches(size_t row, uint16_t value) { switches_[row] = value; }

  /// Appends a zeroed row and returns its index. The appends resize
  /// without an explicit value: value-initialization zero-fills through
  /// memset, while resize(n, 0.0f) compiles to a scalar fill loop wherever
  /// GCC does not inline vector::_M_fill_insert.
  size_t AppendZero() {
    features_.resize(features_.size() + width_);
    assign_.resize(assign_.size() + num_ops_);
    switches_.push_back(0);
    return size_++;
  }

  /// Appends `rows` zeroed rows at once and returns the index of the first.
  /// The parallel Concat preallocates its whole output this way, then lets
  /// each shard fill a disjoint row range in place.
  size_t AppendZeroRows(size_t rows) {
    const size_t first = size_;
    features_.resize(features_.size() + rows * width_);
    assign_.resize(assign_.size() + rows * num_ops_);
    switches_.resize(switches_.size() + rows);
    size_ += rows;
    return first;
  }

  /// Appends a copy of row `row` of `other` (same width/num_ops).
  size_t AppendCopy(const PlanVectorEnumeration& other, size_t row) {
    ROBOPT_DCHECK(other.width_ == width_ && other.num_ops_ == num_ops_);
    features_.insert(features_.end(), other.features(row),
                     other.features(row) + width_);
    assign_.insert(assign_.end(), other.assignment(row),
                   other.assignment(row) + num_ops_);
    switches_.push_back(other.switches(row));
    return size_++;
  }

  void Reserve(size_t rows) {
    features_.reserve(rows * width_);
    assign_.reserve(rows * num_ops_);
    switches_.reserve(rows);
  }

  /// Reserves room for `rows` rows beyond the current size, growing at
  /// least geometrically (2x the current size) so call sites that append
  /// row-by-row stay amortized O(1) across all three pools instead of
  /// reallocating each of them independently per append.
  void ReserveAdditional(size_t rows) {
    const size_t want = size_ + rows;
    if (want * width_ <= features_.capacity() &&
        want * num_ops_ <= assign_.capacity() &&
        want <= switches_.capacity()) {
      return;
    }
    const size_t target = std::max(want, 2 * size_);
    features_.reserve(target * width_);
    assign_.reserve(target * num_ops_);
    switches_.reserve(target);
  }

  /// Drops all rows, keeping scope/boundary and capacity.
  void Clear() {
    features_.clear();
    assign_.clear();
    switches_.clear();
    size_ = 0;
  }

 private:
  size_t width_;
  size_t num_ops_;
  size_t size_ = 0;
  Scope scope_;
  std::vector<OperatorId> boundary_;
  std::vector<float> features_;
  std::vector<uint8_t> assign_;
  std::vector<uint16_t> switches_;
};

/// The abstract plan vector produced by `vectorize`: per-alternative cells
/// hold -1 ("any of these"), everything else is as in a concrete vector.
struct AbstractPlanVector {
  std::vector<OperatorId> ops;  ///< Scope, ascending.
  std::vector<float> features;
};

}  // namespace robopt

#endif  // ROBOPT_CORE_PLAN_VECTOR_H_
