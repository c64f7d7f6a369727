#include "serve/dispatch.hpp"

#include <chrono>
#include <utility>
#include <vector>

namespace serve {

void Dispatcher::operator()(const Request& request, Completion done) {
  const std::string route(route_of(request.target));
  if (overload_ != nullptr) {
    if (overload_->should_shed(route)) {
      done(api_.finish(route, overload_->shed_response(route, "overload"),
                       -1.0));
      return;
    }
    // Track the request through its whole life — batcher queue time
    // included — by decrementing when the completion finally fires.
    overload_->begin_request();
    done = [overload = overload_, inner = std::move(done)](Response response) {
      inner(std::move(response));
      overload->end_request();
    };
  }
  if (request.method == "POST" && route == "/v1/score") {
    const auto started = std::chrono::steady_clock::now();
    std::vector<float> xs;
    Response error;
    if (!api_.decode_score_rows(request, xs, error)) {
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      done(api_.finish("/v1/score", std::move(error), seconds));
      return;
    }
    const std::size_t rows = xs.size() / api_.service().feature_count();
    batcher_.submit(std::move(xs), rows, std::move(done));
    return;
  }
  done(api_.handle(request));
}

}  // namespace serve
