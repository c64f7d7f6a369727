// The ingest WAL's record payload: one day batch as text.
//
//   day <day> <reports>\n
//   <disk> <fate> <hexfloat features...>\n   (per report)
//
// Features are hexfloats (what printf's " %a" prints for the float widened
// to double), so replayed floats are bit-identical to the acked ones — the
// same contract every checkpoint in this codebase follows. The codec is
// its own unit so the fuzz suite (tests/orf/test_wal_codec.cpp) can drive
// it directly, without a WAL underneath.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/types.hpp"
#include "engine/batch.hpp"
#include "util/thread_pool.hpp"

namespace orf {

/// Encode one ingest batch. With `pool`, contiguous runs of reports format
/// concurrently; the bytes are the same for any pool.
std::string encode_wal_batch(data::Day day,
                             std::span<const engine::DiskReport> batch,
                             util::ThreadPool* pool = nullptr);

/// Owned storage for a decoded batch (DiskReport holds feature spans).
struct DecodedBatch {
  data::Day day = 0;
  std::vector<std::vector<float>> features;
  std::vector<engine::DiskReport> reports;
};

/// Decode a payload written by encode_wal_batch with `feature_count`
/// features per report. Accepts exactly the encoder's output: anything
/// else — truncated, mutated or non-canonical text, a header count the
/// payload cannot hold — throws std::runtime_error ("wal replay: malformed
/// record: ..."), before any allocation sized from the payload's claims.
DecodedBatch decode_wal_batch(std::string_view payload,
                              std::size_t feature_count);

}  // namespace orf
