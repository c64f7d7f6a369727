#include "support/stream_oracle.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/mondrian_backend.hpp"
#include "engine/orf_backend.hpp"
#include "orf/service.hpp"

namespace core::checkpoint {

namespace {

void put_double(std::ostream& os, double value) {
  os << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec;
}

void put_float(std::ostream& os, float value) {
  os << std::hex << std::bit_cast<std::uint32_t>(value) << std::dec;
}

void put_rng(std::ostream& os, const util::Rng& rng) {
  const auto state = rng.state();
  os << std::hex;
  for (auto word : state) os << ' ' << word;
  os << std::dec;
}

}  // namespace

std::string StreamOracle::tree(const OnlineTree& tree) {
  std::ostringstream os;
  os << "orf-tree-state v1\n";
  os << tree.feature_count_ << ' ' << tree.params_.n_tests << ' '
     << tree.params_.min_parent_size << ' ' << tree.params_.max_depth << ' '
     << tree.params_.threshold_pool << '\n';
  os << tree.samples_seen_ << ' ' << tree.nodes_.size() << '\n';
  os << "rng";
  put_rng(os, tree.rng_);
  os << '\n';
  for (const auto& node : tree.nodes_) {
    os << node.left << ' ' << node.right << ' ' << node.depth << ' '
       << node.split_feature << ' ';
    put_float(os, node.split_threshold);
    os << ' ';
    put_float(os, node.prob);
    os << ' ' << (node.stats ? 1 : 0) << '\n';
    if (!node.stats) continue;
    const auto& stats = *node.stats;
    os << stats.n[0] << ' ' << stats.n[1] << ' '
       << (stats.tests_ready ? 1 : 0) << ' ' << stats.test_count() << ' '
       << stats.buffer_y.size() << '\n';
    for (std::size_t t = 0; t < stats.test_count(); ++t) {
      os << stats.feature[t] << ' ';
      put_float(os, stats.threshold[t]);
      os << ' ' << stats.right[0][t] << ' ' << stats.right[1][t] << '\n';
    }
    for (std::size_t b = 0; b < stats.buffer_y.size(); ++b) {
      os << int{stats.buffer_y[b]};
      for (float v : stats.buffered(b, tree.feature_count_)) {
        os << ' ';
        put_float(os, v);
      }
      os << '\n';
    }
  }
  os << "gain";
  for (double g : tree.split_gain_) {
    os << ' ';
    put_double(os, g);
  }
  os << '\n';
  return os.str();
}

std::string StreamOracle::forest(const OnlineForest& forest) {
  std::ostringstream os;
  os << "orf-forest-state v1\n";
  os << forest.feature_count_ << ' ' << forest.trees_.size() << ' '
     << forest.samples_seen_ << ' ' << forest.trees_replaced_ << ' '
     << forest.drift_alarms_ << '\n';
  for (std::size_t t = 0; t < forest.trees_.size(); ++t) {
    os << "tree " << t;
    put_rng(os, forest.tree_rngs_[t]);
    os << ' ' << forest.age_[t] << ' ';
    put_double(os, forest.oob_[t].err[0]);
    os << ' ';
    put_double(os, forest.oob_[t].err[1]);
    os << ' ' << forest.oob_[t].evals[0] << ' ' << forest.oob_[t].evals[1]
       << '\n';
    os << tree(forest.trees_[t]);
  }
  for (int c = 0; c < 2; ++c) {
    const auto state = forest.drift_monitor_[c].state();
    os << "drift " << state.count << ' ';
    put_double(os, state.mean);
    os << ' ';
    put_double(os, state.cumulative);
    os << ' ';
    put_double(os, state.min_cumulative);
    os << '\n';
  }
  return os.str();
}

std::string StreamOracle::mondrian(const MondrianForest& forest) {
  std::ostringstream os;
  os << "mondrian-forest-state v1\n";
  os << forest.feature_count_ << ' ' << forest.trees_.size() << ' '
     << forest.samples_seen_ << '\n';
  for (std::size_t t = 0; t < forest.trees_.size(); ++t) {
    os << "tree " << t;
    put_rng(os, forest.tree_rngs_[t]);
    os << '\n';
    const MondrianTree& tree = forest.trees_[t];
    os << "mondrian-tree-state v1\n";
    os << tree.feature_count_ << ' ' << tree.nodes_.size() << ' '
       << tree.root_ << '\n';
    for (const auto& node : tree.nodes_) {
      os << node.left << ' ' << node.right << ' ' << node.feature << ' ';
      put_float(os, node.threshold);
      os << ' ';
      put_double(os, node.time);
      os << ' ' << node.counts[0] << ' ' << node.counts[1];
      for (float v : node.lower) {
        os << ' ';
        put_float(os, v);
      }
      for (float v : node.upper) {
        os << ' ';
        put_float(os, v);
      }
      os << '\n';
    }
  }
  return os.str();
}

std::string StreamOracle::engine(const engine::FleetEngine& engine) {
  std::ostringstream os;
  os << "fleet-engine-state v1\n";
  os << "backend=" << engine.backend_->name() << '\n';
  const std::size_t features = engine.scaler_.feature_count();
  os << features << ' ' << engine.params_.queue_capacity << ' '
     << engine.negatives_released_ << ' ' << engine.positives_released_
     << '\n';
  os << "scaler";
  for (double v : engine.scaler_.mins()) {
    os << ' ';
    put_double(os, v);
  }
  for (double v : engine.scaler_.maxs()) {
    os << ' ';
    put_double(os, v);
  }
  os << '\n';

  std::vector<std::pair<data::DiskId, const core::LabelQueue*>> queues;
  for (const engine::EngineShard& shard : engine.shards_) {
    for (const auto& [disk, queue] : shard.queues()) {
      queues.emplace_back(disk, &queue);
    }
  }
  std::sort(queues.begin(), queues.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  os << "queues " << queues.size() << '\n';
  for (const auto& [disk, queue] : queues) {
    const auto samples = queue->snapshot();
    os << disk << ' ' << samples.size() << '\n';
    for (const auto& x : samples) {
      for (std::size_t f = 0; f < x.size(); ++f) {
        if (f) os << ' ';
        put_float(os, x[f]);
      }
      os << '\n';
    }
  }
  if (const auto* orf = dynamic_cast<const engine::OrfBackend*>(
          engine.backend_.get())) {
    os << forest(orf->forest());
  } else if (const auto* mf = dynamic_cast<const engine::MondrianBackend*>(
                 engine.backend_.get())) {
    os << mondrian(mf->forest());
  } else {
    throw std::logic_error("StreamOracle: unknown backend");
  }
  return os.str();
}

std::string StreamOracle::service(const orf::Service& service) {
  std::ostringstream os;
  os << "orf-service v1" << "\n" << service.next_day() << "\n";
  os << engine(service.engine());
  return os.str();
}

}  // namespace core::checkpoint
