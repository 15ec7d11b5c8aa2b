// launch — runs one program and reports its peak resident set.
//
//   launch RESULT_FILE PROGRAM [ARGS...]
//
// Forks, execs PROGRAM with the inherited stdin/stdout/stderr, waits for it
// with wait4 and writes "<exit code> <peak RSS in KiB>" to RESULT_FILE; exits
// with PROGRAM's exit code. The benchmark's Python driver holds the inputs
// in memory, and Linux carries a process's peak RSS across fork and exec, so
// a child forked from the driver would report the driver's size. Forked
// from this small process instead, PROGRAM's ru_maxrss is its own.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: launch RESULT_FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  pid_t child = fork();
  if (child < 0) {
    std::fprintf(stderr, "launch: fork: %s\n", std::strerror(errno));
    return 2;
  }
  if (child == 0) {
    // The child dies with this process, so killing the launcher on a
    // timeout never leaves the program running.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // Died before prctl took effect.
    execvp(argv[2], argv + 2);
    std::fprintf(stderr, "launch: exec %s: %s\n", argv[2],
                 std::strerror(errno));
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::fprintf(stderr, "launch: wait4: %s\n", std::strerror(errno));
      return 2;
    }
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr ||
      std::fprintf(out, "%d %ld\n", code, usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::fprintf(stderr, "launch: cannot write %s\n", argv[1]);
    return 2;
  }
  return code;
}
