// nvx_executord: the standalone executor daemon of the multi-host execution
// plane. Serves persistent connections of framed RunRequest messages
// (src/net/wire.h): rebuilds a trace backend from each request's plan
// (decoded plans are cached by their wire CacheKey, and a request naming an
// uncached plan by key is answered "plan unknown"), runs the requested shard
// members on the connection's thread, at most --workers at once, and replies
// with PartialReports plus occupancy. kStatsRequest frames read its counters.
// The plan cache holds at most --plan-cache-bytes of encoded plans (8 MiB by
// default, a few thousand typical plans); a plan larger than that runs for
// its request and is not kept. Each request builds its own backend, so runs
// here are cold: no engine state is kept between requests. Peers are
// bounded by constants, not flags (src/net/executor.h): at most 64
// connections, and idle, frame and send deadlines.
//
//   nvx_executord --port 7001 --workers 4 --plan-cache-bytes 16777216
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
               "usage: %s [--port P] [--workers N] [--plan-cache-bytes B]\n"
               "  --port P              TCP port to listen on, 0-65535 (0 = ephemeral; default 0)\n"
               "  --workers N           runs executing at once (0 = hardware concurrency;\n"
               "                        default 0)\n"
               "  --plan-cache-bytes B  encoded plan bytes the plan cache holds; a larger plan\n"
               "                        runs uncached (default 8388608, 8 MiB)\n",
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
    } else if (std::strcmp(arg, "--plan-cache-bytes") == 0) {
      ok = ParseDecimal(value, &options.plan_cache_bytes);
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

  // Serve until killed: accepting and serving happen on background threads
  // (one per connection); park this one. (SIGTERM/SIGINT default to process exit, which is the
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
