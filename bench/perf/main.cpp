// smerge_perf — the end-to-end benchmark of the streammerge service.
//
//   smerge_perf --workload=<name|all> [--seed=20260728] [--seconds=10]
//               [--trace [--trace-dir=DIR]]
//
// Each workload runs in its own process (`all` re-executes this binary
// once per workload). A run prints `<workload> <metric> <value> <unit>`
// lines, `# <workload> ...` notes and one
// `<workload> status correct=<0|1> attempted=<n> failed=<n> digest=<hex>`
// line, and exits 0 only when every output check passed. With --trace
// it also prints every per-layer metric and writes the recorded spans
// to DIR/smerge_perf_spans_<workload>.tsv (and .probe.tsv) at exit.
// README.md defines every metric.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "tracer.h"
#include "util/cli.h"
#include "workloads.h"

namespace {

using namespace smerge;
using namespace smerge::perf;

Result run_workload(const Options& o, Tracer& tracer, LayerHints& hints) {
  if (o.workload.rfind("wire_", 0) == 0) return run_wire(o, tracer, hints);
  if (o.workload == "engine_trace") return run_engine_trace(o, tracer, hints);
  if (o.workload == "offline_plan") return run_offline_plan(o, tracer, hints);
  return run_recover(o, tracer, hints);
}

int run_one(const Options& o) {
  // A wedged run ends itself rather than hang whoever waits for it.
  alarm(static_cast<unsigned>(3 * o.seconds) + 150u);
  // A fixed mmap threshold turns off glibc's history-dependent one, so
  // large buffers go back to the system when freed and peak RSS tracks
  // live data instead of which thread freed what first.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  const HostTicks ticks = host_ticks();
  Tracer tracer(o.trace);
  LayerHints hints;
  Result result = run_workload(o, tracer, hints);
  if (o.trace) {
    tracer.set("host.steal_share", steal_share(ticks, host_ticks()));
    Tracer probe(true);
    probe_layers(o, hints, probe);
    add_per_layer(result, tracer, probe, hints);
    const std::string out = o.trace_dir + "/smerge_perf_spans_" + o.workload;
    if (!tracer.write(out + ".tsv") || !probe.write(out + ".probe.tsv")) {
      std::fprintf(stderr, "smerge_perf: cannot write spans to %s\n", out.c_str());
      return 2;
    }
  }
  result.print();
  return result.correct ? 0 : 1;
}

/// Runs every workload in a child process of its own.
int run_all(int argc, char** argv) {
  int status_all = 0;
  for (const std::string& name : workload_names()) {
    std::vector<std::string> args{argv[0]};
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--workload", 0) == 0) {
        if (a == "--workload") ++i;  // its value is the next argument
        continue;
      }
      args.push_back(a);
    }
    args.push_back("--workload=" + name);
    std::vector<char*> cargs;
    for (std::string& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) return 2;
    if (pid == 0) {
      execv("/proc/self/exe", cargs.data());
      _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "smerge_perf: workload %s failed\n", name.c_str());
      status_all = 1;
    }
  }
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "smerge_perf: end-to-end benchmark — wire latency and capacity, the "
      "in-process engine, off-line planning and restart");
  args.add_string("workload", "all",
                  "one of wire_light, wire_heavy, wire_saturate, engine_trace, "
                  "offline_plan, recover, or all");
  args.add_string("seed", "20260728", "input seed (unsigned 64-bit)");
  args.add_double("seconds", 10.0, "measured time per workload");
  args.add_double("scale", 1.0, "input-size multiplier (smoke tests shrink it)");
  args.add_bool("trace", false, "record spans and print the per-layer metrics");
  args.add_string("trace-dir", ".", "directory the span files are written to");
  try {
    if (!args.parse(argc, argv)) return 0;
    Options o;
    o.workload = args.get_string("workload");
    const std::string seed = args.get_string("seed");
    std::size_t used = 0;
    o.seed = std::stoull(seed, &used);
    if (used != seed.size() || seed.front() == '-') {
      throw std::invalid_argument("--seed must be an unsigned integer");
    }
    o.seconds = args.get_double("seconds");
    o.scale = args.get_double("scale");
    o.trace = args.get_bool("trace");
    o.trace_dir = args.get_string("trace-dir");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
      throw std::invalid_argument("--seconds must be in (0, 600]");
    }
    if (!(o.scale > 0.0 && o.scale <= 4.0)) {
      throw std::invalid_argument("--scale must be in (0, 4]");
    }
    if (o.workload == "all") return run_all(argc, argv);
    bool known = false;
    for (const std::string& name : workload_names()) known = known || name == o.workload;
    if (!known) throw std::invalid_argument("unknown --workload: " + o.workload);
    return run_one(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smerge_perf: %s\n", e.what());
    return 2;
  }
}
