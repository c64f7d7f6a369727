// Codec fuzz and differential suite for the /v1/ingest and /v1/score
// bodies. The handlers decode straight off json::Reader and render straight
// into the response string; this suite keeps the tree-walking path they
// replaced — json::parse, find/is_* over the Value tree, json::dump of a
// rendered tree — as the reference. For every body, valid or mutated, the
// contract is:
//   * Api::handle answers 200 or 400, never crashes or hangs (the suite
//     runs under ASan/UBSan via scripts/check.sh);
//   * status and body equal the reference's byte for byte — the same 400
//     cause for a malformed body, the same rendering for a 200;
//   * the batcher's split path (decode_score_rows + render_scores) agrees.
// Mutations follow the seeded pattern of tests/robust/test_envelope_fuzz.cpp:
// truncation at every offset, a byte substitution at every offset, and
// seeded compound mutations.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "orf/service.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
namespace json = serve::json;

constexpr std::size_t kFeatures = 4;

orf::Config small_config() {
  orf::Config config;
  config.forest.n_trees = 5;
  config.forest.tree.n_tests = 16;
  config.engine.shards = 2;
  return config;
}

// --- The reference: decoding and rendering through the value tree -------

class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

serve::Response dom_response(int status, const json::Value& body) {
  serve::Response response;
  response.status = status;
  response.body = json::dump(body);
  return response;
}

serve::Response dom_error(const std::string& cause) {
  return dom_response(
      400, json::Value::of(json::Object{{"error", json::Value::of(cause)}}));
}

std::vector<float> reference_rows(const json::Value& doc) {
  const json::Value* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    throw BadRequest("body must be {\"rows\": [[...], ...]}");
  }
  std::vector<float> xs;
  for (std::size_t i = 0; i < rows->array.size(); ++i) {
    const json::Value& row = rows->array[i];
    if (!row.is_array() || row.array.size() != kFeatures) {
      throw BadRequest("row " + std::to_string(i) + " must be an array of " +
                       std::to_string(kFeatures) + " numbers");
    }
    for (const json::Value& cell : row.array) {
      if (!cell.is_number()) {
        throw BadRequest("row " + std::to_string(i) +
                         " holds a non-numeric cell");
      }
      xs.push_back(static_cast<float>(cell.number));
    }
  }
  return xs;
}

struct ReferenceBatch {
  std::vector<std::vector<float>> features;
  std::vector<engine::DiskReport> reports;
};

engine::DiskFate reference_fate(const json::Value& report, std::size_t i) {
  const json::Value* fate = report.find("fate");
  if (fate == nullptr) return engine::DiskFate::kOperating;
  if (fate->is_string()) {
    if (fate->string == "operating") return engine::DiskFate::kOperating;
    if (fate->string == "failure") return engine::DiskFate::kFailure;
    if (fate->string == "retirement") return engine::DiskFate::kRetirement;
  }
  throw BadRequest("report " + std::to_string(i) +
                   ": fate must be operating|failure|retirement");
}

ReferenceBatch reference_reports(const json::Value& doc) {
  const json::Value* reports = doc.find("reports");
  if (reports == nullptr || !reports->is_array()) {
    throw BadRequest("body must be {\"reports\": [{...}, ...]}");
  }
  ReferenceBatch batch;
  batch.features.resize(reports->array.size());
  for (std::size_t i = 0; i < reports->array.size(); ++i) {
    const json::Value& report = reports->array[i];
    if (!report.is_object()) {
      throw BadRequest("report " + std::to_string(i) + " must be an object");
    }
    const json::Value* disk = report.find("disk");
    if (disk == nullptr || !disk->is_number() ||
        disk->number != std::floor(disk->number) || disk->number < 0 ||
        disk->number > std::numeric_limits<data::DiskId>::max()) {
      throw BadRequest("report " + std::to_string(i) +
                       ": disk must be a non-negative integer");
    }
    const json::Value* features = report.find("features");
    if (features == nullptr || !features->is_array() ||
        features->array.size() != kFeatures) {
      throw BadRequest("report " + std::to_string(i) +
                       ": features must be an array of " +
                       std::to_string(kFeatures) + " numbers");
    }
    for (const json::Value& cell : features->array) {
      if (!cell.is_number()) {
        throw BadRequest("report " + std::to_string(i) +
                         " holds a non-numeric feature");
      }
      batch.features[i].push_back(static_cast<float>(cell.number));
    }
    batch.reports.push_back(engine::DiskReport{
        .disk = static_cast<data::DiskId>(disk->number),
        .features = batch.features[i],
        .fate = reference_fate(report, i)});
  }
  return batch;
}

json::Value render_scored(std::span<const orf::Scored> scored) {
  json::Array results;
  for (const orf::Scored& s : scored) {
    results.push_back(json::Value::of(json::Object{
        {"score", json::Value::of(s.score)},
        {"alarm", json::Value::of(s.alarm)}}));
  }
  return json::Value::of(json::Object{
      {"count", json::Value::of(static_cast<double>(scored.size()))},
      {"results", json::Value::of(std::move(results))}});
}

serve::Response reference_score(const orf::Service& service,
                                const std::string& body) {
  try {
    const std::vector<float> xs = reference_rows(json::parse(body));
    std::vector<orf::Scored> scored;
    service.score(xs, scored);
    return dom_response(200, render_scored(scored));
  } catch (const json::ParseError& error) {
    return dom_error(error.what());
  } catch (const BadRequest& error) {
    return dom_error(error.what());
  }
}

/// `checkpoint` stands in for the snapshot path the reference service,
/// which has no checkpoint directory, cannot produce itself.
serve::Response reference_ingest(orf::Service& service,
                                 const std::string& body,
                                 const std::string& checkpoint = {}) {
  try {
    const ReferenceBatch batch = reference_reports(json::parse(body));
    std::vector<engine::DayOutcome> outcomes;
    const orf::IngestStats stats = service.ingest(batch.reports, outcomes);
    json::Array rendered;
    for (const engine::DayOutcome& outcome : outcomes) {
      rendered.push_back(json::Value::of(json::Object{
          {"score", json::Value::of(outcome.score)},
          {"alarm", json::Value::of(outcome.alarm)},
          {"rejected", json::Value::of(outcome.rejected)}}));
    }
    json::Object doc{
        {"day", json::Value::of(static_cast<double>(stats.day))},
        {"accepted", json::Value::of(static_cast<double>(stats.accepted))},
        {"rejected",
         json::Value::of(json::Object{
             {"non_finite", json::Value::of(static_cast<double>(
                                stats.rejected_non_finite))},
             {"duplicate", json::Value::of(static_cast<double>(
                               stats.rejected_duplicate))}})},
        {"outcomes", json::Value::of(std::move(rendered))}};
    if (!checkpoint.empty()) {
      doc.emplace_back("checkpoint", json::Value::of(checkpoint));
    }
    return dom_response(200, json::Value::of(std::move(doc)));
  } catch (const json::ParseError& error) {
    return dom_error(error.what());
  } catch (const BadRequest& error) {
    return dom_error(error.what());
  } catch (const std::invalid_argument& error) {
    return dom_error(error.what());  // strict row policy
  }
}

// --- Seed bodies ----------------------------------------------------------

/// A valid day: every fate spelling, members out of order, an unknown
/// member at both levels, whitespace, and every number shape the grammar
/// allows.
const std::string kDayBody =
    "{\"reports\": [\n"
    "  {\"disk\": 0, \"features\": [0.5, -1.25, 3e-05, 12], "
    "\"fate\": \"operating\"},\n"
    "  {\"fate\": \"failure\", \"disk\": 1, \"features\": [1E+2,-0,0.125,7]},\n"
    "  {\"disk\":2,\"features\":[2.5e-1,4,-3.75,1e3],"
    "\"note\":{\"k\":[true,null,\"\\u0041\\n\"]}},\n"
    "  {\"features\": [9, 8.5, -7, 0], \"disk\": 3, "
    "\"fate\": \"retirement\"},\n"
    "  {\"disk\": 4.0, \"features\": [0.001, 2, 3, 4]}\n"
    "], \"source\": \"fuzz\"}";

const std::string kScoreBody =
    "{\"rows\":[[0.5,1,2,3],[1e-3,-2,0,4.5],\n [9, 8, 7, 6]],"
    "\"meta\":{\"a\":[1,{\"b\":false}]}}";

/// Bytes worth trying at every offset: structure, number and string
/// syntax, a control byte, NUL and a high byte.
const char kProbeBytes[] = {'0', '9', '-', '+', '.', 'e',  '"',  '\\', ',',
                            ':', '[', ']', '{', '}', ' ', 'x', '\x01', '\0',
                            '\xff'};

class CodecDifferential : public ::testing::Test {
 protected:
  CodecDifferential()
      : service_(kFeatures, small_config()),
        reference_(kFeatures, small_config()),
        api_(service_) {}

  /// One body through both paths; the contract from the file comment.
  void check(const std::string& target, const std::string& body) {
    serve::Request request;
    request.method = "POST";
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    const serve::Response got = api_.handle(request);
    const serve::Response want = target == "/v1/score"
                                     ? reference_score(reference_, body)
                                     : reference_ingest(reference_, body);
    ASSERT_TRUE(got.status == 200 || got.status == 400) << got.status;
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.body, want.body);
    if (got.status == 200) ++accepted_;
    if (target != "/v1/score") return;

    std::vector<float> xs;
    serve::Response error;
    if (api_.decode_score_rows(request, xs, error)) {
      std::vector<orf::Scored> scored;
      service_.score(xs, scored);
      EXPECT_EQ(api_.render_scores(scored).body, want.body);
    } else {
      EXPECT_EQ(error.status, 400);
      EXPECT_EQ(error.body, want.body);
    }
  }

  /// mutate(pos) for every offset of `seed`, stopping at the first failure.
  void at_every_offset(const std::string& seed, const auto& mutate) {
    for (std::size_t pos = 0; pos < seed.size(); ++pos) {
      SCOPED_TRACE("offset " + std::to_string(pos));
      mutate(pos);
      if (HasFailure()) return;
    }
  }

  orf::Service service_;
  orf::Service reference_;  ///< same config and inputs: same state
  serve::Api api_;
  std::size_t accepted_ = 0;
};

TEST_F(CodecDifferential, SeedBodiesMatchTheTreePath) {
  check("/v1/score", kScoreBody);
  check("/v1/ingest", kDayBody);
  check("/v1/ingest", kDayBody);
  check("/v1/score", kScoreBody);
  EXPECT_EQ(accepted_, 4u);
}

TEST_F(CodecDifferential, EverySemanticCauseMatchesTheTreePath) {
  const std::vector<std::string> days = {
      "[]", "{}", "null", "{\"reports\":{}}", "{\"reports\":[1]}",
      "{\"reports\":[{}]}", "{\"reports\":[{\"disk\":\"0\"}]}",
      "{\"reports\":[{\"disk\":1.5,\"features\":[1,2,3,4]}]}",
      "{\"reports\":[{\"disk\":-1,\"features\":[1,2,3,4]}]}",
      "{\"reports\":[{\"disk\":4294967295,\"features\":[1,2,3,4]}]}",
      "{\"reports\":[{\"disk\":4294967296,\"features\":[1,2,3,4]}]}",
      "{\"reports\":[{\"disk\":1e300,\"features\":[1,2,3,4]}]}",
      "{\"reports\":[{\"disk\":1}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,2,3]}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,2,3,4,5]}]}",
      "{\"reports\":[{\"disk\":1,\"features\":{}}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,2,\"3\",4]}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,[2],3,4,5]}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,2,3,4],\"fate\":\"gone\"}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,2,3,4],\"fate\":2}]}",
      "{\"reports\":[{\"fate\":\"x\",\"features\":[1],\"disk\":-2}]}",
      // A semantic error early and a syntax error later: syntax wins.
      "{\"reports\":[{\"disk\":-1,\"features\":[1,2,3,4]},{\"disk\":01}]}",
      "{\"reports\":[7,{\"disk\":1,\"disk\":2}]}",
      "{\"reports\":[{\"disk\":1,\"features\":[1,2,3,4]},{\"disk\":1,"
      "\"features\":[1,2,3,4]}]}",  // duplicate disk: strict policy 400
      "{\"reports\":[{\"disk\":0,\"features\":[1,2,3,4]}],\"reports\":[]}",
      "{\"reports\":[]}",
  };
  for (const std::string& body : days) {
    SCOPED_TRACE(body);
    check("/v1/ingest", body);
  }
  const std::vector<std::string> scores = {
      "{\"rows\":7}", "{\"rows\":[[1,2,3,4],5]}", "{\"rows\":[[1,2,3]]}",
      "{\"rows\":[[1,2,3,4],[1,2,null,4]]}", "{\"rows\":[[1,2,3,4,[5]]]}",
      "{\"rows\":[[1,2,3,4]],\"rows\":1}", "{\"rows\":[3,[1,2]] ",
      "{\"rows\":[3,[1,2]]} x", "{\"rows\":[]}", "{\"rowz\":[]}"};
  for (const std::string& body : scores) {
    SCOPED_TRACE(body);
    check("/v1/score", body);
  }
}

TEST_F(CodecDifferential, DiskIdsPastTheIdRangeAreRejected) {
  serve::Request request;
  request.method = "POST";
  request.target = "/v1/ingest";
  request.body =
      "{\"reports\":[{\"disk\":4294967296,\"features\":[1,2,3,4]}]}";
  const serve::Response response = api_.handle(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("disk must be a non-negative integer"),
            std::string::npos);
}

TEST_F(CodecDifferential, TruncationAtEveryOffset) {
  for (const auto& [target, seed] : {std::pair{"/v1/ingest", kDayBody},
                                     std::pair{"/v1/score", kScoreBody}}) {
    at_every_offset(
        seed, [&](std::size_t pos) { check(target, seed.substr(0, pos)); });
  }
}

TEST_F(CodecDifferential, ByteSubstitutionAtEveryOffset) {
  for (const auto& [target, seed] : {std::pair{"/v1/ingest", kDayBody},
                                     std::pair{"/v1/score", kScoreBody}}) {
    at_every_offset(seed, [&](std::size_t pos) {
      for (const char byte : kProbeBytes) {
        if (seed[pos] == byte) continue;
        std::string body = seed;
        body[pos] = byte;
        check(target, body);
      }
    });
  }
  EXPECT_GT(accepted_, 0u) << "no substitution kept a body valid";
}

TEST_F(CodecDifferential, SeededCompoundMutations) {
  util::Rng rng(0xc0dec5eedULL);
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool score = rng.below(2) == 0;
    std::string body = score ? kScoreBody : kDayBody;
    const int mutations = static_cast<int>(rng.range(1, 6));
    for (int m = 0; m < mutations && !body.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(rng.below(body.size()));
      switch (rng.below(5)) {
        case 0:
          body[pos] = kProbeBytes[rng.below(sizeof kProbeBytes)];
          break;
        case 1:
          body.erase(pos, 1);
          break;
        case 2:
          body.insert(pos, 1, kProbeBytes[rng.below(sizeof kProbeBytes)]);
          break;
        case 3: {
          // Duplicate a slice: repeated members, rows, nesting.
          const auto len = static_cast<std::size_t>(
              rng.below(std::min<std::size_t>(40, body.size() - pos)) + 1);
          body.insert(pos, body.substr(pos, len));
          break;
        }
        default:
          body[pos] = static_cast<char>(rng.below(256));
          break;
      }
    }
    check(score ? "/v1/score" : "/v1/ingest", body);
    if (HasFailure()) return;
  }
}

TEST(CodecRender, CheckpointPathIsEscapedLikeTheTree) {
  // A snapshot directory whose name needs escaping, so the ingest response
  // carries a "checkpoint" string with a quote and a backslash in it.
  const fs::path dir = fs::temp_directory_path() / "orf_codec \"ck\\pt\"";
  fs::remove_all(dir);
  orf::Config durable = small_config();
  durable.robust.checkpoint_dir = dir.string();
  durable.robust.checkpoint_every = 1;
  orf::Service service(kFeatures, durable);
  orf::Service reference(kFeatures, small_config());
  serve::Api api(service);
  serve::Request request;
  request.method = "POST";
  request.target = "/v1/ingest";
  request.body = kDayBody;
  const serve::Response got = api.handle(request);
  ASSERT_EQ(got.status, 200) << got.body;
  const json::Value doc = json::parse(got.body);
  const json::Value* path = doc.find("checkpoint");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(fs::path(path->string).parent_path(), dir);
  EXPECT_EQ(got.body, reference_ingest(reference, kDayBody, path->string).body);
  fs::remove_all(dir);
}

}  // namespace
