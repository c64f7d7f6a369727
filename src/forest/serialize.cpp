#include "forest/serialize.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "robust/checkpoint_io.hpp"

namespace forest {
namespace {

constexpr const char* kTreeMagic = "orf-tree v1";
constexpr const char* kForestMagic = "orf-forest v1";

std::string read_line(std::istream& is, const char* what) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error(std::string("deserialize: missing ") + what);
  }
  return line;
}

}  // namespace

void save_tree(const DecisionTree& tree, std::ostream& os) {
  const auto nodes = tree.export_nodes();
  const auto& importance = tree.feature_importance();
  os << kTreeMagic << '\n';
  os << nodes.size() << ' ' << importance.size() << '\n';
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& node : nodes) {
    os << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
       << node.right << ' ' << node.prob << '\n';
  }
  for (std::size_t f = 0; f < importance.size(); ++f) {
    os << importance[f] << (f + 1 == importance.size() ? '\n' : ' ');
  }
  if (importance.empty()) os << '\n';
}

DecisionTree load_tree(std::istream& is) {
  if (read_line(is, "tree header") != kTreeMagic) {
    throw std::runtime_error("deserialize: not an orf-tree v1 stream");
  }
  std::size_t n_nodes = 0;
  std::size_t n_features = 0;
  {
    std::istringstream header(read_line(is, "tree sizes"));
    if (!(header >> n_nodes >> n_features)) {
      throw std::runtime_error("deserialize: bad tree size line");
    }
  }
  std::vector<DecisionTree::FlatNode> nodes(n_nodes);
  for (auto& node : nodes) {
    std::istringstream line(read_line(is, "tree node"));
    if (!(line >> node.feature >> node.threshold >> node.left >> node.right >>
          node.prob)) {
      throw std::runtime_error("deserialize: bad tree node line");
    }
  }
  std::vector<double> importance(n_features);
  if (n_features > 0) {
    std::istringstream line(read_line(is, "tree importance"));
    for (auto& v : importance) {
      if (!(line >> v)) {
        throw std::runtime_error("deserialize: bad importance line");
      }
    }
  } else {
    read_line(is, "tree importance");
  }
  DecisionTree tree;
  tree.import_nodes(nodes, std::move(importance));
  return tree;
}

void save_forest(const RandomForest& forest, std::ostream& os) {
  os << kForestMagic << '\n';
  std::size_t feature_count = forest.feature_importance().size();
  os << forest.tree_count() << ' ' << feature_count << '\n';
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    save_tree(forest.tree(t), os);
  }
  robust::commit_stream(os, "forest serialization");
}

RandomForest load_forest(std::istream& is) {
  if (read_line(is, "forest header") != kForestMagic) {
    throw std::runtime_error("deserialize: not an orf-forest v1 stream");
  }
  std::size_t n_trees = 0;
  std::size_t feature_count = 0;
  {
    std::istringstream header(read_line(is, "forest sizes"));
    if (!(header >> n_trees >> feature_count)) {
      throw std::runtime_error("deserialize: bad forest size line");
    }
  }
  std::vector<DecisionTree> trees;
  trees.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) trees.push_back(load_tree(is));
  RandomForest forest;
  forest.import_trees(std::move(trees), feature_count);
  return forest;
}

void save_forest_file(const RandomForest& forest, const std::string& path) {
  // Same crash-safety contract as the engine checkpoint: CRC32 envelope,
  // temp file, fsync, atomic rename.
  std::ostringstream payload;
  save_forest(forest, payload);
  robust::write_envelope_file(path, payload.str());
}

RandomForest load_forest_file(const std::string& path) {
  std::istringstream is(robust::read_envelope_file(path));
  return load_forest(is);
}

}  // namespace forest
