#include "server_proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "net/loadgen.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kStartTimeout = std::chrono::seconds(60);
constexpr auto kStopTimeout = std::chrono::seconds(30);

/// Reaps `pid` within `timeout`; returns the wait status or -1 on timeout.
int WaitFor(pid_t pid, std::chrono::milliseconds timeout) {
  const auto end = Clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return 0;  // already reaped elsewhere; nothing left to wait on
    if (Clock::now() >= end) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

fkd::Result<double> ServerProcess::Start(const std::string& binary,
                                         const std::string& snapshot_dir,
                                         const std::string& work_dir) {
  if (pid_ > 0) return fkd::Status::FailedPrecondition("server already up");
  const std::string port_file = work_dir + "/port";
  log_path_ = work_dir + "/server.log";
  std::filesystem::remove(port_file);

  std::vector<std::string> args = {binary, "--snapshot=" + snapshot_dir,
                                   "--port=0", "--port-file=" + port_file};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const auto launched = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return fkd::Status::IoError("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_path_.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;

  // Port file first (written by rename, so never half-read), then ping.
  while (Clock::now() - launched < kStartTimeout) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return fkd::Status::Internal(fkd::StrFormat(
          "fkd_server exited during start-up (status %d); see %s", status,
          log_path_.c_str()));
    }
    if (port_ == 0) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) port_ = port;
    }
    if (port_ > 0 && fkd::net::Ping("127.0.0.1", port_).ok()) {
      return std::chrono::duration<double>(Clock::now() - launched).count();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return fkd::Status::DeadlineExceeded("fkd_server did not answer a ping");
}

fkd::Result<double> ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return fkd::Status::FailedPrecondition("server not running");
  return PeakRssMbOf(pid_);
}

fkd::Result<double> PeakRssMbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return fkd::Status::NotFound("no VmHWM in /proc status");
}

fkd::Status ServerProcess::Stop() {
  if (pid_ <= 0) return fkd::Status::OK();
  ::kill(pid_, SIGTERM);
  int status = WaitFor(pid_, kStopTimeout);
  if (status == -1) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return fkd::Status::DeadlineExceeded("fkd_server did not drain in time");
  }
  pid_ = -1;
  port_ = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return fkd::Status::Internal(fkd::StrFormat(
        "fkd_server failed its shutdown accounting (status %d); see %s",
        status, log_path_.c_str()));
  }
  return fkd::Status::OK();
}

}  // namespace perfbench
