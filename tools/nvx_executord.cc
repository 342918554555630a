// nvx_executord: the standalone executor daemon of the multi-host execution
// plane. Listens for framed RunRequest messages (src/net/wire.h), rebuilds
// trace backends from received plans (caching decoded plans by their wire
// CacheKey), runs the requested shard members on a thread pool, and replies
// with PartialReports plus occupancy.
//
//   nvx_executord --port 7001 --workers 4
//
// --port 0 (the default) picks an ephemeral port; the chosen port is printed
// either way, as the line "nvx_executord listening on port <p>", which the
// smoke harness parses. Every numeric flag must be a plain non-negative
// decimal that fits its type; anything else prints the usage and exits 2.
// The daemon serves until killed.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "src/net/executor.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--workers N] [--plan-cache C] [--pool-capacity E]\n"
               "  --port P           TCP port to listen on, 0-65535 (0 = ephemeral; default 0)\n"
               "  --workers N        thread-pool size (0 = hardware concurrency; default 0)\n"
               "  --plan-cache C     decoded-plan cache capacity (default 64)\n"
               "  --pool-capacity E  idle engine states pooled per plan for the warm-run\n"
               "                     path (0 = disable pooling; default 8)\n",
               argv0);
}

// Parses all of `text` as a non-negative decimal that fits T: no sign, no
// whitespace, no trailing characters, no overflow.
template <typename T>
bool ParseDecimal(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  bunshin::net::ExecutorOptions options;
  // Every flag takes a value; a missing one parses as "" and is rejected.
  for (int i = 1; i < argc; i += 2) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    bool ok = false;
    if (std::strcmp(arg, "--port") == 0) {
      ok = ParseDecimal(value, &port);
    } else if (std::strcmp(arg, "--workers") == 0) {
      ok = ParseDecimal(value, &options.n_workers);
    } else if (std::strcmp(arg, "--plan-cache") == 0) {
      ok = ParseDecimal(value, &options.plan_cache_capacity);
    } else if (std::strcmp(arg, "--pool-capacity") == 0) {
      ok = ParseDecimal(value, &options.engine_pool_capacity);
    }
    if (!ok) {
      Usage(argv[0]);
      return 2;
    }
  }

  bunshin::net::ExecutorServer server(options);
  bunshin::Status status = server.ListenTcp(port);
  if (!status.ok()) {
    std::fprintf(stderr, "nvx_executord: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("nvx_executord listening on port %u\n", server.port());
  std::fflush(stdout);

  // Serve until killed: accepting and serving happen on background threads;
  // park this one. (SIGTERM/SIGINT default to process exit, which is the
  // intended shutdown path — the fleet treats an executor as stateless.)
  sigset_t set;
  sigemptyset(&set);
  int sig = 0;
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  sigwait(&set, &sig);
  return 0;
}
