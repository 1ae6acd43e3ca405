#include "server_process.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace wirebench {
namespace {

constexpr size_t kLogKeep = 16 * 1024;

// The port announced by the structured log line carrying `msg`, or 0.
uint16_t PortFromLog(const std::string& log, const char* msg) {
  const size_t at = log.find(msg);
  if (at == std::string::npos) return 0;
  const size_t eol = log.find('\n', at);
  if (eol == std::string::npos) return 0;  // line not complete yet
  const size_t p = log.find(" port=", at);
  if (p == std::string::npos || p > eol) return 0;
  return static_cast<uint16_t>(std::atoi(log.c_str() + p + 6));
}

// utime + stime of a /proc/<pid>[/task/<tid>]/stat file, in milliseconds.
double StatCpuMs(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return 0;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int n = 3; n <= 15 && (fields >> field); ++n) {
    if (n == 14) utime = std::atoll(field.c_str());
    if (n == 15) stime = std::atoll(field.c_str());
  }
  static const double ms_per_tick =
      1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(utime + stime) * ms_per_tick;
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(2000); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          bool want_admin, int timeout_ms,
                          std::string* error) {
  log_.clear();
  port_ = admin_port_ = 0;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid_ == 0) {
    // Child: die with the generator, log to the pipe, nothing on stdout.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, 0);
    dup2(null_fd, 1);
    dup2(fds[1], 2);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  log_fd_ = fds[0];
  fcntl(log_fd_, F_SETFL, fcntl(log_fd_, F_GETFL) | O_NONBLOCK);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{log_fd_, POLLIN, 0};
    poll(&pfd, 1, 5);
    DrainLog();
    port_ = PortFromLog(log_, "tcp serving tier listening");
    if (want_admin) admin_port_ = PortFromLog(log_, "admin plane listening");
    if (port_ != 0 && (!want_admin || admin_port_ != 0)) return true;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "spexserve exited during start-up: " + log_;
      return false;
    }
  }
  *error = "spexserve did not announce its port within " +
           std::to_string(timeout_ms) + " ms: " + log_;
  return false;
}

void ServerProcess::DrainLog() {
  if (log_fd_ < 0) return;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(log_fd_, buf, sizeof buf);
    if (n <= 0) return;
    log_.append(buf, static_cast<size_t>(n));
    if (log_.size() > 2 * kLogKeep) log_.erase(0, log_.size() - kLogKeep);
  }
}

int ServerProcess::Stop(int grace_ms) {
  int status = -1;
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    bool reaped = false;
    while (std::chrono::steady_clock::now() < deadline) {
      DrainLog();
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (log_fd_ >= 0) {
    close(log_fd_);
    log_fd_ = -1;
  }
  return status;
}

double ServerProcess::ProcessCpuMs() const {
  return StatCpuMs("/proc/" + std::to_string(pid_) + "/stat");
}

std::vector<ThreadCpu> ServerProcess::ThreadCpuMs() const {
  std::vector<ThreadCpu> out;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    ThreadCpu t;
    t.tid = std::atoi(e->d_name);
    t.cpu_ms = StatCpuMs(dir + "/" + e->d_name + "/stat");
    out.push_back(t);
  }
  closedir(d);
  return out;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0;
}

}  // namespace wirebench
