// The std::ostream checkpoint writers the savers used before they moved to
// core::checkpoint::Writer, kept verbatim as a byte-for-byte oracle: every
// Writer-based save — with or without a thread pool — must produce exactly
// these bytes, so checkpoints written before and after the move stay
// interchangeable.
#pragma once

#include <string>

#include "core/checkpoint.hpp"
#include "core/mondrian_forest.hpp"
#include "core/online_forest.hpp"
#include "core/online_tree.hpp"
#include "engine/fleet_engine.hpp"

namespace orf {
class Service;
}

namespace core::checkpoint {

struct StreamOracle {
  static std::string tree(const OnlineTree& tree);
  static std::string forest(const OnlineForest& forest);
  static std::string mondrian(const MondrianForest& forest);
  static std::string engine(const engine::FleetEngine& engine);
  /// "orf-service v1\n<next_day>\n" + engine, as Service::save writes it.
  static std::string service(const orf::Service& service);
};

}  // namespace core::checkpoint
