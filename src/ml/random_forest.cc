#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace robopt {

RandomForest::RandomForest() : params_(Params()) {}

RandomForest::RandomForest(Params params) : params_(params) {}

Status RandomForest::Train(const MlDataset& data) {
  if (data.size() == 0) return Status::InvalidArgument("empty training set");
  if (params_.num_trees < 1) {
    return Status::InvalidArgument("num_trees must be at least 1");
  }
  const double sample_rows =
      params_.subsample * static_cast<double>(data.size());
  if (!std::isfinite(params_.subsample) || params_.subsample <= 0.0 ||
      sample_rows > static_cast<double>(std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument(
        "subsample must be a finite positive fraction of the training set");
  }
  const bool obs_on = ROBOPT_OBS_ON(params_.obs);
  Tracer* const tracer = obs_on ? params_.obs.tracer : nullptr;
  uint64_t trace_id = params_.obs.trace_id;
  if (tracer != nullptr && trace_id == 0) trace_id = tracer->NewTrace();
  SpanScope span(tracer, trace_id, params_.obs.parent_span, "forest_train");
  Stopwatch watch;

  // Transform labels once; every tree then fits one presorted copy.
  std::vector<float> labels(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    labels[i] = params_.log_label
                    ? static_cast<float>(
                          std::log1p(static_cast<double>(data.label(i))))
                    : data.label(i);
  }
  auto columns = PresortedColumns::Build(data, std::move(labels));
  if (!columns.ok()) return columns.status();

  meta_.trained_rows = data.size();
  Rng rng(params_.seed);
  trees_.assign(params_.num_trees, DecisionTree());
  const auto sample_size = static_cast<size_t>(sample_rows);
  std::vector<uint32_t> indices(std::max<size_t>(sample_size, 1));
  size_t nodes = 0;
  for (DecisionTree& tree : trees_) {
    for (uint32_t& index : indices) {
      index = static_cast<uint32_t>(rng.NextBounded(data.size()));
    }
    tree.Fit(*columns, indices, params_.tree, &rng);
    nodes += tree.num_nodes();
  }
  kernel_.Build(trees_);

  if (obs_on && params_.obs.metrics != nullptr) {
    MetricsRegistry* metrics = params_.obs.metrics;
    static const std::vector<double> kFitBucketsS = {
        0.01, 0.04, 0.16, 0.64, 2.56, 10.24, 40.96, 163.84, 655.36};
    if (Histogram* fit = metrics->GetHistogram("robopt_forest_fit_seconds",
                                               kFitBucketsS)) {
      fit->Observe(watch.ElapsedSeconds());
    }
    if (Counter* total = metrics->GetCounter("robopt_forest_nodes_total")) {
      total->Add(nodes);
    }
  }
  span.SetArgA("rows", static_cast<int64_t>(data.size()));
  span.SetArgB("nodes", static_cast<int64_t>(nodes));
  return Status::OK();
}

void RandomForest::PredictBatch(const float* x, size_t n, size_t dim,
                                float* out) const {
  if (n == 0) return;
  if (kernel_.num_trees() != trees_.size()) {
    // Defensive: a forest whose kernel was not rebuilt (impossible through
    // the public API) still predicts correctly via the reference path.
    PredictBatchReference(x, n, dim, out);
    return;
  }
  kernel_.PredictBatch(x, n, dim, out, params_.log_label,
                       params_.num_threads);
}

void RandomForest::PredictBatchReference(const float* x, size_t n, size_t dim,
                                         float* out) const {
  if (n == 0) return;
  if (trees_.empty()) {
    std::fill(out, out + n, 0.0f);
    return;
  }
  // Cache-blocked per-tree walk: for each block of rows, loop trees in the
  // outer loop and rows in the inner one, so one tree's node array is
  // walked for the whole block before moving on. Blocks are independent, so
  // the block range parallelizes across the pool; each row's sum keeps the
  // fixed tree order and the result is bit-identical to the serial loop
  // (and to the flattened ForestKernel, which mirrors this structure).
  const double inv = 1.0 / static_cast<double>(trees_.size());
  const int threads = params_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                               : params_.num_threads;
  const size_t num_blocks =
      (n + ForestKernel::kRowBlock - 1) / ForestKernel::kRowBlock;
  ParallelFor(threads, 0, num_blocks, 1, [&](size_t block0, size_t block1) {
    double acc[ForestKernel::kRowBlock];
    for (size_t block = block0; block < block1; ++block) {
      const size_t row0 = block * ForestKernel::kRowBlock;
      const size_t row1 = std::min(n, row0 + ForestKernel::kRowBlock);
      std::fill(acc, acc + (row1 - row0), 0.0);
      for (const DecisionTree& tree : trees_) {
        for (size_t row = row0; row < row1; ++row) {
          acc[row - row0] += tree.Predict(x + row * dim, dim);
        }
      }
      for (size_t row = row0; row < row1; ++row) {
        double value = acc[row - row0] * inv;
        if (params_.log_label) value = std::expm1(value);
        out[row] = static_cast<float>(value < 0 ? 0 : value);
      }
    }
  });
}

Status RandomForest::Save(const std::string& path) const {
  // Write-then-fsync-then-rename: the final path only ever holds a complete
  // file, across both process crashes and power loss. A failure mid-write
  // leaves (at worst) a stale .tmp sibling, never a torn model where Load
  // would find it; the data is on stable storage before the rename makes it
  // visible. (On Windows only the process-crash guarantee holds — there is
  // no fsync — and Load's truncation checks still fail safe.)
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) return Status::Internal("cannot open " + tmp);
    file << "random_forest 2\n"
         << meta_.version << " " << meta_.trained_rows << "\n"
         << trees_.size() << " " << (params_.log_label ? 1 : 0) << "\n";
    for (const DecisionTree& tree : trees_) tree.Serialize(file);
    file.flush();
    if (!file) {
      std::remove(tmp.c_str());
      return Status::Internal("write failed: " + tmp);
    }
  }
#ifndef _WIN32
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      std::remove(tmp.c_str());
      return Status::Internal("fsync failed: " + tmp);
    }
    ::close(fd);
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " into " + path);
  }
#ifndef _WIN32
  // Persist the directory entry too, so the rename itself survives power
  // loss. Best-effort: the file data is already durable, and some
  // filesystems refuse fsync on directories.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : slash == 0 ? std::string("/")
                                           : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  return Status::OK();
}

Status RandomForest::Load(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::Internal("cannot open " + path);
  std::string magic;
  int version = 0;
  size_t count = 0;
  int log_label = 0;
  ModelMeta meta;
  file >> magic >> version;
  if (!file || magic != "random_forest") {
    return Status::InvalidArgument("not a random_forest file: " + path);
  }
  if (version != 1 && version != 2) {
    return Status::InvalidArgument("unsupported random_forest version " +
                                   std::to_string(version) + ": " + path);
  }
  // v2 carries a provenance line; v1 files predate it and default to
  // {version 0, trained_rows 0}.
  if (version == 2) file >> meta.version >> meta.trained_rows;
  file >> count >> log_label;
  if (!file) {
    return Status::InvalidArgument("truncated random_forest header: " + path);
  }
  // Reject corrupt/truncated headers before the tree count drives an
  // allocation. Real forests are tens of trees; a million is far beyond any
  // legitimate file and well below anything that could exhaust memory.
  constexpr size_t kMaxTrees = 1000000;
  if (count > kMaxTrees) {
    return Status::InvalidArgument(
        "implausible tree count " + std::to_string(count) +
        " in random_forest file: " + path);
  }
  params_.log_label = log_label != 0;
  meta_ = meta;
  trees_.assign(count, DecisionTree());
  for (DecisionTree& tree : trees_) {
    if (!tree.Deserialize(file)) {
      trees_.clear();
      kernel_.Clear();
      return Status::Internal("corrupt or truncated forest file: " + path);
    }
  }
  kernel_.Build(trees_);
  return Status::OK();
}

}  // namespace robopt
