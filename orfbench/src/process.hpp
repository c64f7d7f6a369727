// One orfd child process: spawned with the benchmark's flags, its
// ephemeral port read from the startup line, stopped with SIGTERM (the
// daemon's drain path) and always reaped.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace orfbench {

class OrfdProcess {
 public:
  /// Starts `binary args...` with stdout on a pipe and stderr appended to
  /// `log_path`; blocks until the "server on <addr>:<port>" line arrives.
  /// Throws when the daemon exits or stays silent for `timeout_s`.
  OrfdProcess(const std::string& binary, const std::vector<std::string>& args,
              const std::string& log_path, double timeout_s);
  ~OrfdProcess();

  OrfdProcess(const OrfdProcess&) = delete;
  OrfdProcess& operator=(const OrfdProcess&) = delete;

  int port() const { return port_; }

  /// SIGTERM, wait up to `timeout_s` for the drain, then SIGKILL. Returns
  /// the exit status (waitpid form); idempotent.
  int stop(double timeout_s = 20.0);

  /// Peak resident set (VmHWM), MiB.
  double peak_rss_mb() const;
  /// utime + stime so far, seconds.
  double cpu_seconds() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  int status_ = 0;
};

}  // namespace orfbench
