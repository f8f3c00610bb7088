#ifndef PERFBENCH_SERVER_PROC_H_
#define PERFBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <string>

#include "common/status.h"

namespace perfbench {

/// One fkd_server child process serving a snapshot on an ephemeral port.
/// The child is killed with the benchmark (PR_SET_PDEATHSIG) so a crashed
/// run never leaves a server behind; the destructor stops and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary --snapshot=<snapshot_dir> --port=0` and blocks until
  /// the first kPing succeeds. Returns the seconds from fork to that pong:
  /// the server's set-up time (snapshot load, replicas, listener).
  /// `work_dir` receives the port file and the server's log.
  fkd::Result<double> Start(const std::string& binary,
                            const std::string& snapshot_dir,
                            const std::string& work_dir);

  /// Peak resident set (VmHWM) of the server so far, in MiB.
  fkd::Result<double> PeakRssMb() const;

  /// SIGTERM, then waits for the graceful drain. OK only when the server
  /// exited 0, i.e. its own no-silent-drop accounting check passed.
  fkd::Status Stop();

  int port() const { return port_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string log_path_;
};

/// Peak resident set (VmHWM) of process `pid`, in MiB.
fkd::Result<double> PeakRssMbOf(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H_
