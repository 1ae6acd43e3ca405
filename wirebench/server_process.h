// spexserve as a separate process: spawn, read its listening ports from the
// structured log, sample its per-thread CPU and peak RSS from /proc, and
// stop it.

#ifndef WIREBENCH_SERVER_PROCESS_H_
#define WIREBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

struct ThreadCpu {
  int tid = 0;
  double cpu_ms = 0;  // utime + stime
};

class ServerProcess {
 public:
  ServerProcess() = default;
  // Stops the process (SIGTERM, then SIGKILL) and reaps it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts `binary` with `args` and waits up to `timeout_ms` for the "tcp
  // serving tier listening" log line (and the admin plane's, when
  // `want_admin`).  False with *error on failure.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             bool want_admin, int timeout_ms, std::string* error);

  // Reads whatever the server logged since the last call (non-blocking);
  // keeps the last few KiB for diagnostics.  Call it from the poll loop so
  // a chatty server never blocks on a full stderr pipe.
  void DrainLog();
  int log_fd() const { return log_fd_; }
  const std::string& log_tail() const { return log_; }

  // SIGTERM (graceful drain), then SIGKILL after `grace_ms`; reaps.
  // Returns the exit status as waitpid reports it (-1 if never started).
  int Stop(int grace_ms = 10000);

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }

  // utime+stime of the whole process / of each thread, in milliseconds.
  double ProcessCpuMs() const;
  std::vector<ThreadCpu> ThreadCpuMs() const;
  // VmHWM in MiB (0 when unreadable).
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int log_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
  std::string log_;
};

}  // namespace wirebench

#endif  // WIREBENCH_SERVER_PROCESS_H_
