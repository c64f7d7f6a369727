#include "core/checkpoint.hpp"

#include <bit>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/online_forest.hpp"
#include "core/online_tree.hpp"
#include "robust/checkpoint_io.hpp"
#include "util/ordered_append.hpp"

namespace core {

namespace cp = checkpoint;

namespace checkpoint {

double get_double(std::istream& is) {
  std::uint64_t bits = 0;
  is >> std::hex >> bits >> std::dec;
  if (!is) throw std::runtime_error("checkpoint: bad double field");
  return std::bit_cast<double>(bits);
}

float get_float(std::istream& is) {
  std::uint32_t bits = 0;
  is >> std::hex >> bits >> std::dec;
  if (!is) throw std::runtime_error("checkpoint: bad float field");
  return std::bit_cast<float>(bits);
}

std::uint64_t get_u64(std::istream& is, const char* what) {
  std::uint64_t value = 0;
  if (!(is >> value)) {
    throw std::runtime_error(std::string("checkpoint: missing ") + what);
  }
  return value;
}

void expect_tag(std::istream& is, const char* tag) {
  std::string token;
  if (!(is >> token) || token != tag) {
    throw std::runtime_error(std::string("checkpoint: expected tag '") +
                             tag + "', got '" + token + "'");
  }
}

util::Rng get_rng(std::istream& is) {
  std::array<std::uint64_t, 4> state{};
  is >> std::hex;
  for (auto& word : state) {
    if (!(is >> word)) throw std::runtime_error("checkpoint: bad rng state");
  }
  is >> std::dec;
  util::Rng rng;
  rng.set_state(state);
  return rng;
}

}  // namespace checkpoint

// ---- OnlineTree ------------------------------------------------------------

std::size_t OnlineTree::save_bound() const {
  constexpr std::size_t kInt = cp::kMaxIntChars + 1;  // value + separator
  constexpr std::size_t kFloat = cp::kMaxFloatChars + 1;
  const std::size_t row = kInt + feature_count_ * kFloat;
  std::size_t bytes = 64 + 7 * kInt + cp::kRngChars +
                      feature_count_ * (cp::kMaxDoubleChars + 1);
  for (const auto& node : nodes_) {
    bytes += 5 * kInt + 2 * kFloat;
    if (!node.stats) continue;
    bytes += 5 * kInt + node.stats->test_count() * (3 * kInt + kFloat) +
             node.stats->buffer_y.size() * row;
  }
  return bytes;
}

void OnlineTree::save(std::string& out) const {
  cp::Writer w(out);
  w << "orf-tree-state v1\n";
  w << feature_count_ << ' ' << params_.n_tests << ' '
    << params_.min_parent_size << ' ' << params_.max_depth << ' '
    << params_.threshold_pool << '\n';
  w << samples_seen_ << ' ' << nodes_.size() << '\n';
  w << "rng" << rng_ << '\n';
  for (const auto& node : nodes_) {
    w << node.left << ' ' << node.right << ' ' << node.depth << ' '
      << node.split_feature << ' ' << cp::hex(node.split_threshold) << ' '
      << cp::hex(node.prob) << ' ' << (node.stats ? 1 : 0) << '\n';
    if (!node.stats) continue;
    const LeafStats& stats = *node.stats;
    w << stats.n[0] << ' ' << stats.n[1] << ' ' << (stats.tests_ready ? 1 : 0)
      << ' ' << stats.test_count() << ' ' << stats.buffer_y.size() << '\n';
    for (std::size_t t = 0; t < stats.test_count(); ++t) {
      w << stats.feature[t] << ' ' << cp::hex(stats.threshold[t]) << ' '
        << stats.right[0][t] << ' ' << stats.right[1][t] << '\n';
    }
    for (std::size_t b = 0; b < stats.buffer_y.size(); ++b) {
      w << int{stats.buffer_y[b]};
      for (float v : stats.buffered(b, feature_count_)) w << ' ' << cp::hex(v);
      w << '\n';
    }
  }
  w << "gain";
  for (double g : split_gain_) w << ' ' << cp::hex(g);
  w << '\n';
}

void OnlineTree::save(std::ostream& os) const {
  std::string out;
  save(out);
  os << out;
}

void OnlineTree::restore(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "orf-tree-state v1") {
    // Tolerate a leading newline left by a preceding token read.
    if (line.empty() && std::getline(is, line) &&
        line == "orf-tree-state v1") {
      // ok
    } else {
      throw std::runtime_error("checkpoint: not an orf-tree-state v1");
    }
  }
  const auto feature_count = cp::get_u64(is, "tree feature count");
  const auto n_tests = cp::get_u64(is, "n_tests");
  const auto min_parent = cp::get_u64(is, "min_parent_size");
  const auto max_depth = cp::get_u64(is, "max_depth");
  const auto pool = cp::get_u64(is, "threshold_pool");
  if (feature_count != feature_count_ ||
      n_tests != static_cast<std::uint64_t>(params_.n_tests) ||
      min_parent != static_cast<std::uint64_t>(params_.min_parent_size) ||
      max_depth != static_cast<std::uint64_t>(params_.max_depth) ||
      pool != static_cast<std::uint64_t>(params_.threshold_pool)) {
    throw std::runtime_error(
        "checkpoint: tree parameters do not match the receiving object");
  }
  samples_seen_ = cp::get_u64(is, "samples_seen");
  // The learn and scoring kernels index without checks, so everything they
  // rely on is checked here: feature indices < F, right counts ≤ the leaf's
  // class counts, labels 0/1, and children after their parent (splits
  // append children, so this also rules out cycles). Sizes come from the
  // parameters, never straight from the file.
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("checkpoint: ") + what);
  };
  const auto node_count = cp::get_u64(is, "node count");
  if (node_count == 0) fail("tree has no root");
  cp::expect_tag(is, "rng");
  rng_ = cp::get_rng(is);

  const auto get_count = [&](const char* what) {
    const auto value = cp::get_u64(is, what);
    if (value > UINT32_MAX) fail("count out of range");
    return static_cast<std::uint32_t>(value);
  };
  nodes_.clear();
  for (std::uint64_t i = 0; i < node_count; ++i) {
    Node node;
    int depth = 0;
    int has_stats = 0;
    if (!(is >> node.left >> node.right >> depth >> node.split_feature)) {
      throw std::runtime_error("checkpoint: bad tree node line");
    }
    node.depth = static_cast<std::int16_t>(depth);
    node.split_threshold = cp::get_float(is);
    node.prob = cp::get_float(is);
    if (!(is >> has_stats)) {
      throw std::runtime_error("checkpoint: bad tree node flags");
    }
    if (node.split_feature >= 0) {
      const auto child_ok = [&](std::int32_t child) {
        return child > 0 && static_cast<std::uint64_t>(child) > i &&
               static_cast<std::uint64_t>(child) < node_count;
      };
      if (static_cast<std::uint64_t>(node.split_feature) >= feature_count_) {
        fail("split feature out of range");
      }
      if (!child_ok(node.left) || !child_ok(node.right)) {
        fail("child index out of range");
      }
    } else if (node.left != -1 || node.right != -1 || !has_stats) {
      fail("malformed leaf");
    }
    if (has_stats) {
      node.stats = std::make_unique<LeafStats>();
      LeafStats& stats = *node.stats;
      stats.n[0] = get_count("n0");
      stats.n[1] = get_count("n1");
      stats.tests_ready = cp::get_u64(is, "tests_ready") != 0;
      const auto n_node_tests = cp::get_u64(is, "test count");
      const auto buffered = cp::get_u64(is, "buffer count");
      if (n_node_tests != 0 &&
          n_node_tests != static_cast<std::uint64_t>(params_.n_tests)) {
        fail("bad leaf test count");
      }
      if (buffered >= static_cast<std::uint64_t>(params_.threshold_pool)) {
        fail("bad leaf buffer count");
      }
      stats.feature.resize(n_node_tests);
      stats.threshold.resize(n_node_tests);
      stats.right[0].resize(n_node_tests);
      stats.right[1].resize(n_node_tests);
      for (std::uint64_t t = 0; t < n_node_tests; ++t) {
        const auto feature = cp::get_u64(is, "test feature");
        if (feature >= feature_count_) fail("test feature out of range");
        stats.feature[t] = static_cast<std::uint16_t>(feature);
        stats.threshold[t] = cp::get_float(is);
        stats.right[0][t] = get_count("right0");
        stats.right[1][t] = get_count("right1");
        if (stats.right[0][t] > stats.n[0] || stats.right[1][t] > stats.n[1]) {
          fail("right count exceeds the leaf's class count");
        }
      }
      stats.buffer_x.reserve(buffered * feature_count_);
      stats.buffer_y.reserve(buffered);
      for (std::uint64_t b = 0; b < buffered; ++b) {
        const auto y = cp::get_u64(is, "buffer label");
        if (y > 1) fail("buffer label is not 0 or 1");
        stats.buffer_y.push_back(static_cast<std::uint8_t>(y));
        for (std::size_t f = 0; f < feature_count_; ++f) {
          stats.buffer_x.push_back(cp::get_float(is));
        }
      }
    }
    nodes_.push_back(std::move(node));
  }
  cp::expect_tag(is, "gain");
  split_gain_.assign(feature_count_, 0.0);
  for (auto& g : split_gain_) g = cp::get_double(is);
  // Epochs are not checkpointed (they are cache-invalidation state local to
  // this object): bump both so any compiled flat snapshot of the previous
  // state is rebuilt before it can serve a prediction.
  ++structure_epoch_;
  ++stats_epoch_;
}

// ---- OnlineForest ----------------------------------------------------------

void OnlineForest::save(std::string& out, util::ThreadPool* pool) const {
  cp::Writer w(out);
  w << "orf-forest-state v1\n";
  w << feature_count_ << ' ' << trees_.size() << ' ' << samples_seen_ << ' '
    << trees_replaced_.load(std::memory_order_relaxed) << ' ' << drift_alarms_
    << '\n';
  // Trees are the bulk of every checkpoint and independent of each other:
  // format them on the pool, appended in tree order.
  util::append_ordered(
      out, trees_.size(), pool,
      [&](std::size_t t) {
        return 6 * (cp::kMaxIntChars + 1) + cp::kRngChars +
               2 * (cp::kMaxDoubleChars + 1) + trees_[t].save_bound();
      },
      [&](std::string& text, std::size_t t) {
        cp::Writer tw(text);
        tw << "tree " << t << tree_rngs_[t] << ' ' << age_[t] << ' '
           << cp::hex(oob_[t].err[0]) << ' ' << cp::hex(oob_[t].err[1]) << ' '
           << oob_[t].evals[0] << ' ' << oob_[t].evals[1] << '\n';
        trees_[t].save(text);
      });
  for (int c = 0; c < 2; ++c) {
    const auto state = drift_monitor_[c].state();
    w << "drift " << state.count << ' ' << cp::hex(state.mean) << ' '
      << cp::hex(state.cumulative) << ' ' << cp::hex(state.min_cumulative)
      << '\n';
  }
}

void OnlineForest::save(std::ostream& os) const {
  std::string out;
  save(out);
  os << out;
  robust::commit_stream(os, "forest checkpoint");
}

void OnlineForest::restore(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "orf-forest-state v1") {
    throw std::runtime_error("checkpoint: not an orf-forest-state v1");
  }
  const auto feature_count = cp::get_u64(is, "forest feature count");
  const auto n_trees = cp::get_u64(is, "tree count");
  if (feature_count != feature_count_ || n_trees != trees_.size()) {
    throw std::runtime_error(
        "checkpoint: forest shape does not match the receiving object");
  }
  samples_seen_ = cp::get_u64(is, "samples_seen");
  trees_replaced_ = cp::get_u64(is, "trees_replaced");
  drift_alarms_ = cp::get_u64(is, "drift_alarms");
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    cp::expect_tag(is, "tree");
    const auto index = cp::get_u64(is, "tree index");
    if (index != t) throw std::runtime_error("checkpoint: tree order");
    tree_rngs_[t] = cp::get_rng(is);
    age_[t] = cp::get_u64(is, "tree age");
    oob_[t].err[0] = cp::get_double(is);
    oob_[t].err[1] = cp::get_double(is);
    oob_[t].evals[0] = static_cast<std::uint32_t>(cp::get_u64(is, "evals0"));
    oob_[t].evals[1] = static_cast<std::uint32_t>(cp::get_u64(is, "evals1"));
    is >> std::ws;
    trees_[t].restore(is);
  }
  for (int c = 0; c < 2; ++c) {
    cp::expect_tag(is, "drift");
    PageHinkley::State state;
    state.count = cp::get_u64(is, "drift count");
    state.mean = cp::get_double(is);
    state.cumulative = cp::get_double(is);
    state.min_cumulative = cp::get_double(is);
    drift_monitor_[c].set_state(state);
  }
}

}  // namespace core
