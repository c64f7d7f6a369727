#include "probes.hpp"

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "loadgen.hpp"
#include "serve/batcher.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "stats.hpp"
#include "tsdb/reader.hpp"
#include "tsdb/writer.hpp"
#include "util/stopwatch.hpp"

namespace orfbench {

namespace {

std::unique_ptr<orf::Service> restored(const orf::Config& config,
                                       std::size_t features,
                                       const std::string& state) {
  auto service = std::make_unique<orf::Service>(features, config);
  std::istringstream in(state);
  service->restore(in);
  return service;
}

orf::Config with_dirs(orf::Config config, const std::string& dir) {
  config.robust.checkpoint_dir = dir + "/ckpt";
  config.tsdb.directory = dir + "/tsdb";
  return config;
}

}  // namespace

Values probe_ingest_path(const Fleet& fleet, const std::string& state,
                         const orf::Config& durable_config,
                         const std::string& dir, std::size_t days,
                         std::vector<double>& durable_ms) {
  std::filesystem::create_directories(dir);
  const std::size_t features = fleet.feature_count();
  auto behind_api =
      restored(with_dirs(durable_config, dir + "/api"), features, state);
  auto direct =
      restored(with_dirs(durable_config, dir + "/direct"), features, state);
  serve::Api api(*behind_api);
  tsdb::Writer writer(tsdb::Writer::Options{
      .directory = dir + "/tee", .feature_count = features});

  std::vector<double> handler_ms, parse_ms, encode_ms, flush_ms;
  durable_ms.clear();
  std::vector<engine::DayOutcome> outcomes;
  std::vector<tsdb::RowView> rows;
  for (std::size_t i = 0; i < days; ++i) {
    const data::Day day = fleet.warm_days() + static_cast<data::Day>(i);
    if (day >= fleet.duration()) break;
    serve::Request request;
    request.method = "POST";
    request.target = "/v1/ingest";
    request.version = "HTTP/1.1";
    request.body = fleet.ingest_body(day);

    util::Stopwatch timer;
    const serve::json::Value parsed = serve::json::parse(request.body);
    parse_ms.push_back(timer.millis());

    timer.reset();
    const serve::Response response = api.handle(request);
    handler_ms.push_back(timer.millis());
    if (response.status != 200) {
      throw std::runtime_error("probe: /v1/ingest answered " +
                               std::to_string(response.status));
    }
    const serve::json::Value rendered = serve::json::parse(response.body);
    timer.reset();
    const std::string encoded = serve::json::dump(rendered);
    encode_ms.push_back(timer.millis());

    const auto& reports = fleet.day(day).reports;
    timer.reset();
    direct->ingest(reports, outcomes);
    durable_ms.push_back(timer.millis());

    rows.clear();
    for (const engine::DiskReport& report : reports) {
      rows.push_back(tsdb::RowView{
          .disk = report.disk,
          .fate = static_cast<std::uint8_t>(report.fate),
          .features = report.features});
    }
    timer.reset();
    writer.append_day(day, rows);
    writer.flush();
    flush_ms.push_back(timer.millis());
  }

  std::vector<double> checkpoint_ms;
  for (int i = 0; i < 3; ++i) {
    util::Stopwatch timer;
    direct->checkpoint_now();
    checkpoint_ms.push_back(timer.millis());
  }
  return Values{{"serve.ingest_handler_ms", median(handler_ms)},
                {"serve.json_parse_ms", median(parse_ms)},
                {"serve.json_encode_ms", median(encode_ms)},
                {"orf.ingest_ms", median(durable_ms)},
                {"orf.checkpoint_ms", median(checkpoint_ms)},
                {"tsdb.append_flush_ms", median(flush_ms)}};
}

Values probe_score_path(orf::Service& service,
                        const std::vector<std::string>& bodies,
                        const std::vector<std::vector<float>>& rows,
                        std::size_t batch_rows, std::size_t concurrency) {
  serve::Api api(service);
  std::vector<double> parse_us, decode_us, render_us;
  std::vector<serve::Request> requests;
  for (const std::string& body : bodies) {
    const std::string wire = post_head("/v1/score", body.size()) + body;
    util::Stopwatch timer;
    serve::RequestParser parser;
    if (parser.feed(wire) != serve::RequestParser::State::kComplete) {
      throw std::runtime_error("probe: score request did not parse");
    }
    serve::Request request = parser.take();
    parse_us.push_back(timer.seconds() * 1e6);

    std::vector<float> xs;
    serve::Response error;
    timer.reset();
    if (!api.decode_score_rows(request, xs, error)) {
      throw std::runtime_error("probe: score rows did not decode");
    }
    decode_us.push_back(timer.seconds() * 1e6);

    std::vector<orf::Scored> scored;
    service.score(xs, scored);
    timer.reset();
    const serve::Response rendered = api.render_scores(scored);
    render_us.push_back(timer.seconds() * 1e6);
    requests.push_back(std::move(request));
  }

  // Service::score and OnlineForest::predict_batch at the batch size the
  // micro-batcher formed.
  const std::size_t features = service.feature_count();
  std::vector<float> batch;
  for (std::size_t r = 0; batch.size() < batch_rows * features; ++r) {
    const auto& row = rows[r % rows.size()];
    batch.insert(batch.end(), row.begin(),
                 row.begin() + static_cast<long>(std::min(
                                   row.size(), batch_rows * features - batch.size())));
  }
  std::vector<float> scaled(batch.size());
  std::vector<float> one;
  for (std::size_t r = 0; r < batch_rows; ++r) {
    service.engine().scaler().transform(
        std::span<const float>(batch).subspan(r * features, features), one);
    std::copy(one.begin(), one.end(), scaled.begin() + static_cast<long>(r * features));
  }
  std::vector<double> score_us, predict_us;
  std::vector<orf::Scored> scored;
  std::vector<double> proba(batch_rows);
  core::OnlineForest& forest = service.engine().forest();
  for (int i = 0; i < 400; ++i) {
    util::Stopwatch timer;
    service.score(batch, scored);
    score_us.push_back(timer.seconds() * 1e6 / static_cast<double>(batch_rows));
    timer.reset();
    forest.predict_batch(scaled, proba);
    predict_us.push_back(timer.seconds() * 1e6 / static_cast<double>(batch_rows));
  }

  // ScoreBatcher: `concurrency` submissions in flight, as the workload's
  // connections produce them, each timed from submit to completion.
  orf::ServeSection options;
  serve::ScoreBatcher batcher(api, options);
  batcher.start();
  std::vector<double> wait_us;
  std::mutex mu;
  std::condition_variable cv;
  for (std::size_t round = 0; round < 300; ++round) {
    std::size_t pending = concurrency;
    for (std::size_t k = 0; k < concurrency; ++k) {
      const auto& xs = rows[(round * concurrency + k) % rows.size()];
      const auto submitted = std::chrono::steady_clock::now();
      batcher.submit(xs, xs.size() / features,
                     [&, submitted](serve::Response) {
                       const double us =
                           std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - submitted)
                               .count();
                       std::lock_guard lock(mu);
                       wait_us.push_back(us);
                       --pending;
                       cv.notify_one();
                     });
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
  batcher.stop();

  return Values{{"serve.http_parse_us", median(parse_us)},
                {"serve.score_decode_us", median(decode_us)},
                {"serve.score_render_us", median(render_us)},
                {"orf.score_us_per_row", median(score_us)},
                {"core.predict_us_per_row", median(predict_us)},
                {"serve.batch_wait_us", median(wait_us)}};
}

double probe_read_day_ms(const std::string& store) {
  tsdb::Reader reader(store);
  tsdb::Reader::DayBatch batch;
  std::vector<double> ms;
  for (data::Day day = reader.floor_day(); day < reader.end_day(); ++day) {
    util::Stopwatch timer;
    reader.read_day(day, batch);
    ms.push_back(timer.millis());
  }
  return median(ms);
}

}  // namespace orfbench
