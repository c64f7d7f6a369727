#include "robust/checkpoint_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "robust/failpoint.hpp"

namespace robust {
namespace {

constexpr std::string_view kMagic = "orf-ckpt";
constexpr std::string_view kVersion = "v1";

constexpr std::array<const char*, 6> kWriterSites = {
    "checkpoint.open_temp",    "checkpoint.write_payload",
    "checkpoint.after_payload", "checkpoint.fsync",
    "checkpoint.rename",        "checkpoint.after_rename",
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// RAII fd that closes on scope exit (double close is harmless here: the
/// explicit close() path clears the fd first).
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  void close_checked(const std::string& what) {
    const int f = fd;
    fd = -1;
    if (::close(f) != 0) throw_errno(what);
  }
};

void fsync_path(const std::string& path, const std::string& what) {
  Fd dir{::open(path.c_str(), O_RDONLY)};
  if (dir.fd < 0) throw_errno(what + " open");
  if (::fsync(dir.fd) != 0) throw_errno(what + " fsync");
}

}  // namespace

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
/// the classic bytewise table, kCrcTables[s][b] advances byte b through s
/// more zero bytes, so eight input bytes fold into the CRC per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load, whatever the host order (compiles to one mov on x86).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// "orf-ckpt v1 <bytes> <crc>\n" for `payload`.
std::string envelope_header(std::string_view payload) {
  char header[64];
  const int n =
      std::snprintf(header, sizeof header, "%.*s %.*s %zu %08x\n",
                    static_cast<int>(kMagic.size()), kMagic.data(),
                    static_cast<int>(kVersion.size()), kVersion.data(),
                    payload.size(), crc32(payload));
  return std::string(header, static_cast<std::size_t>(n));
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::string make_envelope(std::string_view payload) {
  std::string out = envelope_header(payload);
  out.append(payload);
  return out;
}

bool looks_like_envelope(std::string_view bytes) {
  return bytes.size() > kMagic.size() && bytes.substr(0, kMagic.size()) ==
                                             kMagic &&
         bytes[kMagic.size()] == ' ';
}

std::string parse_envelope(std::string_view envelope) {
  const auto fail = [](const std::string& why) -> std::string {
    throw CorruptCheckpoint("corrupt checkpoint: " + why);
  };
  const auto newline = envelope.find('\n');
  if (newline == std::string_view::npos) return fail("missing header line");
  const std::string_view header = envelope.substr(0, newline);

  // Header tokens: magic version length crc.
  std::array<std::string_view, 4> token;
  std::size_t pos = 0;
  for (std::size_t t = 0; t < token.size(); ++t) {
    while (pos < header.size() && header[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < header.size() && header[pos] != ' ') ++pos;
    token[t] = header.substr(start, pos - start);
    if (token[t].empty()) return fail("truncated header");
  }
  if (token[0] != kMagic) return fail("bad magic '" + std::string(token[0]) +
                                      "'");
  if (token[1] != kVersion) {
    return fail("unsupported format version '" + std::string(token[1]) + "'");
  }
  std::size_t length = 0;
  auto [lp, lec] = std::from_chars(token[2].data(),
                                   token[2].data() + token[2].size(), length);
  if (lec != std::errc() || lp != token[2].data() + token[2].size()) {
    return fail("bad payload length field");
  }
  std::uint32_t expected_crc = 0;
  auto [cp, cec] =
      std::from_chars(token[3].data(), token[3].data() + token[3].size(),
                      expected_crc, 16);
  if (cec != std::errc() || cp != token[3].data() + token[3].size()) {
    return fail("bad checksum field");
  }

  const std::string_view payload = envelope.substr(newline + 1);
  if (payload.size() < length) {
    return fail("payload truncated (" + std::to_string(payload.size()) +
                " of " + std::to_string(length) + " bytes)");
  }
  if (payload.size() > length) return fail("trailing bytes after payload");
  if (crc32(payload) != expected_crc) return fail("checksum mismatch");
  return std::string(payload);
}

void write_parts(int fd, std::span<const std::string_view> parts,
                 const std::string& what, std::size_t limit) {
  for (std::string_view part : parts) {
    part = part.substr(0, std::min(part.size(), limit));
    limit -= part.size();
    while (!part.empty()) {
      const ssize_t n = ::write(fd, part.data(), part.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno(what);
      }
      part.remove_prefix(static_cast<std::size_t>(n));
    }
  }
}

void write_envelope_file(const std::string& path, std::string_view payload) {
  const std::string header = envelope_header(payload);
  const std::string_view parts[] = {header, payload};
  const std::string tmp = path + ".tmp";

  ORF_FAILPOINT("checkpoint.open_temp");
  Fd fd{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
  if (fd.fd < 0) throw_errno("checkpoint: cannot open " + tmp);

  // A short-write fault truncates the framed bytes mid-file and then
  // "crashes" (throws) before the rename — exactly what a power cut during
  // write() leaves behind.
  if (const auto keep = failpoint_short_write("checkpoint.write_payload")) {
    const auto kept = static_cast<std::size_t>(
        static_cast<double>(header.size() + payload.size()) * *keep);
    write_parts(fd.fd, parts, "checkpoint: short write to " + tmp, kept);
    throw InjectedFault("checkpoint.write_payload");
  }
  write_parts(fd.fd, parts, "checkpoint: write to " + tmp);
  ORF_FAILPOINT("checkpoint.after_payload");

  ORF_FAILPOINT("checkpoint.fsync");
  if (::fsync(fd.fd) != 0) throw_errno("checkpoint: fsync " + tmp);
  fd.close_checked("checkpoint: close " + tmp);

  ORF_FAILPOINT("checkpoint.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("checkpoint: rename " + tmp + " -> " + path);
  }
  // Make the rename itself durable: without the directory fsync a crash can
  // roll the directory entry back to the old checkpoint (fine) or to the
  // temp name (not fine).
  fsync_path(std::filesystem::path(path).parent_path().empty()
                 ? "."
                 : std::filesystem::path(path).parent_path().string(),
             "checkpoint: directory " + path);
  ORF_FAILPOINT("checkpoint.after_rename");
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

std::string read_envelope_file(const std::string& path) {
  try {
    return parse_envelope(slurp(path));
  } catch (const CorruptCheckpoint& e) {
    throw CorruptCheckpoint(std::string(e.what()) + " (" + path + ")");
  }
}

std::span<const char* const> checkpoint_failpoint_sites() {
  return std::span<const char* const>(kWriterSites.data(),
                                      kWriterSites.size());
}

void commit_stream(std::ostream& os, const std::string& what) {
  errno = 0;
  os.flush();
  if (os.good()) return;
  std::string message = what + ": stream write failed";
  if (errno != 0) {
    message += ": ";
    message += std::strerror(errno);
  }
  throw std::runtime_error(message);
}

}  // namespace robust
