// Crash-safe checkpoint files: CRC32-framed envelope + atomic replace.
//
// Every durable checkpoint in this codebase (engine state, frozen forests)
// is a text payload. This module wraps that payload in a one-line envelope
//
//   orf-ckpt v1 <payload_bytes> <crc32_hex>\n<payload...>
//
// (magic, format version, length, checksum) and writes it with the
// classical torn-write-proof sequence: write to a sibling temp file, flush,
// fsync the file, atomically rename() over the destination, fsync the
// directory. A reader therefore observes either the complete previous
// checkpoint or the complete new one — never a prefix — and the CRC turns
// any other damage (bit rot, manual truncation) into a typed
// CorruptCheckpoint instead of a half-restored engine.
//
// Each stage of the writer is a named failpoint (catalog below), so the
// recovery tests inject a crash at every stage and prove the invariant
// rather than assuming it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "robust/errors.hpp"

namespace robust {

/// IEEE 802.3 CRC32 (the zlib polynomial): the checksum of every envelope,
/// WAL record and tsdb block frame. Slicing-by-8 — eight bytes per table
/// step — with the same result as the bytewise table walk.
std::uint32_t crc32(std::string_view bytes);

/// Serialize `payload` into the envelope format (no file I/O).
std::string make_envelope(std::string_view payload);

/// Parse and validate an envelope; returns the payload. Throws
/// CorruptCheckpoint on wrong magic, unsupported version, length mismatch,
/// trailing bytes, or CRC mismatch.
std::string parse_envelope(std::string_view envelope);

/// True when `bytes` begins with the envelope magic.
bool looks_like_envelope(std::string_view bytes);

/// Atomically (re)place the envelope-framed `payload` at `path`:
/// `path`.tmp → fsync → rename → fsync(dir). Throws std::runtime_error with
/// errno context on real I/O failure, InjectedFault/InjectedIoError when a
/// failpoint fires. On failure the destination is untouched (a stale .tmp
/// may remain, as after a genuine crash).
void write_envelope_file(const std::string& path, std::string_view payload);

/// Write the concatenation of `parts` to `fd`, retrying short writes and
/// EINTR, stopping after `limit` bytes (a short-write failpoint's cut).
/// Throws std::runtime_error naming `what` with errno context. The durable
/// writers (envelope, WAL, tsdb) frame with it: header and payload go out
/// back to back, never through a framed copy.
void write_parts(int fd, std::span<const std::string_view> parts,
                 const std::string& what,
                 std::size_t limit = static_cast<std::size_t>(-1));

/// Read `path` and return its validated payload. A file that is not a
/// valid envelope — unframed bytes, or one truncated so short that the
/// magic itself is gone — is CorruptCheckpoint: every checkpoint this
/// codebase writes is framed, so nothing loads without its CRC check.
/// Throws std::runtime_error when the file cannot be opened.
std::string read_envelope_file(const std::string& path);

/// The writer's failpoint sites, in execution order — the recovery suite
/// iterates this catalog to crash a save at every stage.
std::span<const char* const> checkpoint_failpoint_sites();

/// Flush `os` and throw std::runtime_error (with errno context when the OS
/// reported one) if the stream is in a failed state. Every save path ends
/// with this so a full disk or yanked volume surfaces as an exception, not
/// a silently truncated file.
void commit_stream(std::ostream& os, const std::string& what);

}  // namespace robust
