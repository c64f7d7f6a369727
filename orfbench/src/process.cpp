#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace orfbench {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

OrfdProcess::OrfdProcess(const std::string& binary,
                         const std::vector<std::string>& args,
                         const std::string& log_path, double timeout_s) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork");
  if (pid_ == 0) {
    // The daemon never outlives the harness, even when the harness is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  close(log_fd);
  stdout_fd_ = pipe_fds[0];

  // Read startup lines until the listener reports its port.
  std::string text;
  const double deadline = now_s() + timeout_s;
  while (port_ == 0) {
    const double left = deadline - now_s();
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left <= 0 || poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      stop(1.0);
      throw std::runtime_error("orfd did not report its port in time");
    }
    char buf[4096];
    const ssize_t got = read(stdout_fd_, buf, sizeof buf);
    if (got <= 0) {
      stop(1.0);
      throw std::runtime_error("orfd exited during start-up; see " + log_path);
    }
    text.append(buf, static_cast<std::size_t>(got));
    const auto at = text.find(" server on ");
    if (at == std::string::npos) continue;
    const auto eol = text.find('\n', at);
    if (eol == std::string::npos) continue;
    const auto colon = text.rfind(':', eol);
    port_ = std::atoi(text.substr(colon + 1, eol - colon - 1).c_str());
    if (port_ <= 0) {
      stop(1.0);
      throw std::runtime_error("cannot parse orfd port from: " + text);
    }
  }
}

OrfdProcess::~OrfdProcess() { stop(5.0); }

int OrfdProcess::stop(double timeout_s) {
  if (pid_ <= 0) return status_;
  kill(pid_, SIGTERM);
  const double deadline = now_s() + timeout_s;
  // Keep draining stdout so the daemon never blocks on a full pipe.
  char buf[4096];
  if (stdout_fd_ >= 0) fcntl(stdout_fd_, F_SETFL, O_NONBLOCK);
  while (true) {
    if (stdout_fd_ >= 0) {
      while (read(stdout_fd_, buf, sizeof buf) > 0) {
      }
    }
    const pid_t done = waitpid(pid_, &status_, WNOHANG);
    if (done == pid_) break;
    if (now_s() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status_, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  return status_;
}

double OrfdProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double OrfdProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  const auto close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && (fields >> field); ++i) {
    if (i == 12 || i == 13) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace orfbench
