// dgc_serve: the pipeline as a long-running daemon (docs/SERVING.md).
// Accepts newline-delimited `dgc.serve.request.v1` JSON objects, runs
// symmetrize+cluster per request on the process-wide thread pool, and
// answers one `dgc.serve.response.v1` line per request with the run report
// embedded. Repeat requests for the same (graph, symmetrization
// parameters) hit the content-addressed cache and skip straight to
// stage 2.
//
//   $ ./dgc_serve --stdio
//       serve requests on stdin, responses on stdout (one process per
//       client; the mode scripted transports and tests use)
//   $ ./dgc_serve --port=0 [--bind=127.0.0.1]
//       TCP mode; prints "listening on <addr>:<port>" on stdout once
//       ready (port 0 = kernel-assigned, read the printed value)
//
// Shared flags:
//   --cache-mb=N      symmetrization cache budget in MiB (default 256;
//                     0 disables caching)
//   --max-edges=N     per-request graph-file edge cap (default unlimited)
//   --max-request-kb=N request line cap in KiB (default 1024)
//
// The daemon never exits because of anything a client sends; stop it with
// {"op": "shutdown"} (both modes) or EOF on stdin (--stdio).
#include <cstdio>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "serve/server.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace dgc;
  auto opts = Options::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 2;
  }
  const bool stdio = opts->GetBool("stdio", false);
  const bool tcp = opts->Has("port");
  if (stdio == tcp) {
    std::fprintf(stderr,
                 "usage: dgc_serve (--stdio | --port=N) [--bind=ADDR] "
                 "[--cache-mb=N] [--max-edges=N] [--max-request-kb=N]\n");
    return 2;
  }

  MetricsRegistry server_metrics;
  ServeOptions options;
  options.metrics = &server_metrics;
  options.cache_max_bytes = opts->GetInt("cache-mb", 256) * (int64_t{1} << 20);
  const int64_t max_edges = opts->GetInt("max-edges", 0);
  if (max_edges > 0) options.limits.io.max_edges = max_edges;
  const int64_t max_request_kb = opts->GetInt("max-request-kb", 0);
  if (max_request_kb > 0) {
    options.limits.json.max_bytes = max_request_kb * 1024;
  }
  options.bind_address = opts->GetString("bind", "127.0.0.1");
  options.port = static_cast<int>(opts->GetInt("port", 0));
  const Status flags = opts->CheckAllRead();
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    return 1;
  }

  Server server(std::move(options));
  if (stdio) {
    const Status status = server.ServeStream(std::cin, std::cout);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  auto port = server.StartTcp();
  if (!port.ok()) {
    std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
    return 1;
  }
  // The readiness line is part of the contract: supervisors (and the CI
  // smoke job) block on it before connecting, and with --port=0 it is the
  // only way to learn the kernel-assigned port.
  std::printf("listening on %s:%d\n",
              opts->GetString("bind", "127.0.0.1").c_str(), *port);
  std::fflush(stdout);
  const Status status = server.RunTcp();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
