// xr_bench: the repository's benchmark binary (see perfbench/README.md).
//
//   xr_bench --workload <rpc_small|storage_write|db_txn|xcheck_faults>
//            --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//   xr_bench --sweep <rpc_small|storage_write> --seed <n>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Each metric line above it
// names its clock: `virtual` (the RNIC/fabric/CPU model, deterministic per
// seed), `host` (what the simulator costs to run) or `count`.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::RoundOptions;
using perfbench::RoundResult;
using perfbench::SpanKind;
using perfbench::Tracer;

constexpr std::uint64_t kCheckProbeSeeds = 8;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;
};

/// Linear-interpolated percentile (q in [0,1]) of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::vector<double> to_us(const std::vector<xrdma::Nanos>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (xrdma::Nanos x : ns) out.push_back(static_cast<double>(x) / 1e3);
  return out;
}

double host_us_per_op(const RoundResult& r) {
  return r.attempted ? static_cast<double>(r.timed_cpu_ns) / 1e3 /
                           static_cast<double>(r.attempted)
                     : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6f %-10s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str());
  }
}

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt_num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

/// The virtual-clock end-to-end results of one round.
struct Virtual {
  double p50 = 0, p99 = 0, p999 = 0, ops_per_s = 0, goodput_gbps = 0;
};

Virtual virtual_metrics(const RoundResult& r) {
  Virtual v;
  const std::vector<double> lat = to_us(r.lat);
  v.p50 = percentile(lat, 0.50);
  v.p99 = percentile(lat, 0.99);
  v.p999 = percentile(lat, 0.999);
  if (r.v_span > 0) {
    const double secs = static_cast<double>(r.v_span) / 1e9;
    v.ops_per_s = static_cast<double>(r.measured) / secs;
    v.goodput_gbps = static_cast<double>(r.payload_bytes) * 8 / secs / 1e9;
  }
  return v;
}

/// Runs rounds of one seed within `budget_s` of wall time (at least
/// `min_rounds`), for host-time medians and the determinism check.
std::vector<RoundResult> run_rounds(const std::string& w, RoundOptions opt,
                                    double budget_s, int min_rounds) {
  std::vector<RoundResult> out;
  const std::int64_t t0 = perfbench::wall_ns();
  double last_s = 0;
  // Stop once another round would overrun the budget.
  while (static_cast<int>(out.size()) < min_rounds ||
         static_cast<double>(perfbench::wall_ns() - t0) / 1e9 + last_s <= budget_s) {
    const std::int64_t r0 = perfbench::wall_ns();
    out.push_back(perfbench::run_round(w, opt));
    last_s = static_cast<double>(perfbench::wall_ns() - r0) / 1e9;
    if (out.size() > 1) {
      // Later rounds only need their digest and host time; dropping their
      // samples keeps peak RSS independent of how many rounds fit.
      std::vector<xrdma::Nanos>().swap(out.back().lat);
      out.back().stages.clear();
    }
  }
  return out;
}

/// Host cost per op: the least over rounds [first, end). Same-seed rounds do
/// identical work, and on a shared host interference only adds time: over
/// eight 30 s rpc_small runs the quartile spread was 0.10 of the median with
/// each run's median round and 0.06 with its least.
double least_host_us_per_op(const std::vector<RoundResult>& rs, std::size_t first) {
  double best = 0;
  for (std::size_t i = std::min(first, rs.size() - 1); i < rs.size(); ++i) {
    const double v = host_us_per_op(rs[i]);
    if (best == 0 || v < best) best = v;
  }
  return best;
}

bool same_digests(const std::vector<RoundResult>& rs) {
  for (const RoundResult& r : rs) {
    if (r.digest != rs.front().digest) return false;
  }
  return true;
}

/// Set-up time: median of `n` set-ups. They run before any timed round, so
/// every one starts from the same small heap.
double setup_median(const std::string& w, const RoundOptions& base, int n) {
  std::vector<double> s;
  RoundOptions o = base;
  o.setup_only = true;
  for (int i = 0; i < n; ++i) s.push_back(perfbench::run_round(w, o).setup_s);
  return median(s);
}

struct Totals {
  std::uint64_t attempted = 0, failed = 0, mismatches = 0, violations = 0;
  void add(const std::vector<RoundResult>& rs) {
    for (const RoundResult& r : rs) {
      attempted += r.attempted;
      failed += r.failed;
      mismatches += r.mismatches;
      violations += r.violations;
    }
  }
};

void print_rounds(const char* what, const std::vector<RoundResult>& rs) {
  std::printf("  %s host_us_per_op by round:", what);
  for (const RoundResult& r : rs) std::printf(" %.3f", host_us_per_op(r));
  std::printf("\n");
}

void print_outcome(const Totals& t, bool deterministic, std::size_t rounds) {
  std::printf("outcome: attempted %llu, failed %llu (payload mismatches %llu, "
              "seeds with oracle violations %llu), error_rate %.6f [count]\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.mismatches),
              static_cast<unsigned long long>(t.violations),
              ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)));
  std::printf("determinism: %zu same-seed rounds, virtual results and counts %s\n",
              rounds, deterministic ? "identical" : "DIFFER");
}

int run_end_to_end(const std::string& w, const RoundOptions& opt, double secs) {
  const double setup = setup_median(w, opt, 9);
  const std::vector<RoundResult> rounds = run_rounds(w, opt, secs, 2);
  const RoundResult& r0 = rounds.front();
  const Virtual v = virtual_metrics(r0);

  const bool xcheck = w == "xcheck_faults";
  std::vector<Metric> ms = {
      {"lat_p50_us", v.p50, "us", "virtual"},
      {"lat_p99_us", v.p99, "us", "virtual"},
      {"ops_per_s", v.ops_per_s, "1/s", "virtual"},
      // The first round also pays process warm-up (first-touch memory, cold
      // caches).
      {"host_us_per_op", least_host_us_per_op(rounds, 1), "us", "host"},
      {"setup_s", setup, "s", "host"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host"},
  };
  std::printf("workload %s, seed %llu: %zu rounds of %llu %s\n", w.c_str(),
              static_cast<unsigned long long>(opt.seed), rounds.size(),
              static_cast<unsigned long long>(r0.attempted),
              xcheck ? "seeds" : "ops");
  print_metrics(ms);
  print_rounds("", rounds);
  std::printf("  %-32s %16llu %-10s [count]\n", "samples",
              static_cast<unsigned long long>(r0.lat.size()), "ops");
  if (w == "rpc_small") {
    std::printf("  %-32s %16.6f %-10s [virtual]\n", "lat_p999_us", v.p999, "us");
  }
  if (!xcheck) {
    std::printf("  %-32s %16.6f %-10s [virtual]\n", "goodput_gbps",
                v.goodput_gbps, "Gbit/s");
  }
  if (w == "rpc_small") {
    const double rtt = perfbench::unloaded_rtt_us(opt.seed);
    std::printf("accuracy anchor: unloaded 64 B RPC RTT %.3f us [virtual] vs "
                "5.60 us in the paper (Fig. 7). The model is calibrated to "
                "the paper's figures, not validated on hardware.\n", rtt);
  }
  Totals t;
  t.add(rounds);
  const bool det = same_digests(rounds);
  print_outcome(t, det, rounds.size());
  const bool correct = det && t.failed == 0 && t.mismatches == 0;
  std::printf("%s\n", json_line(correct, t.attempted, t.failed, ms).c_str());
  return correct ? 0 : 1;
}

/// Per-op host time of one span kind over the traced rounds.
double span_ns_per_op(const Tracer& tr, SpanKind k, double ops, bool self) {
  const Tracer::Agg& a = tr.agg(k);
  return ratio(static_cast<double>(self ? a.self_ns : a.total_ns), ops);
}

int run_traced(const std::string& w, const RoundOptions& opt, double secs,
               const std::string& spans_out) {
  const bool xcheck = w == "xcheck_faults";
  const std::vector<RoundResult> plain = run_rounds(w, opt, secs / 2, 2);
  Tracer tracer;
  RoundOptions topt = opt;
  topt.tracer = &tracer;
  const std::vector<RoundResult> traced = run_rounds(w, topt, secs / 2, 1);
  // The check layer. xcheck_faults measures it on its own rounds. BENCHMARK.json
  // leaves xcheck_faults out of the gated workloads, so every other traced
  // run probes the layer on a few X-Check seeds of its own.
  std::vector<RoundResult> check_on, check_off;
  RoundOptions copt = opt;
  if (!xcheck) {
    copt.shape = perfbench::Shape{0, kCheckProbeSeeds};
    copt.tracer = &tracer;
    check_on.push_back(perfbench::run_round("xcheck_faults", copt));
    copt.tracer = nullptr;
  }
  copt.oracles = false;
  check_off.push_back(perfbench::run_round("xcheck_faults", copt));

  const RoundResult& r = plain.front();
  const RoundResult& tr = traced.front();
  const double ops = static_cast<double>(r.attempted);
  const double traced_ops = static_cast<double>(tr.attempted * traced.size());
  std::vector<double> connect;
  for (const RoundResult& x : plain) connect.push_back(x.connect_s * 1e3);
  const double host_plain = least_host_us_per_op(plain, 1);
  // Traced rounds run after the untraced ones, so all of them are warm.
  const double host_traced = least_host_us_per_op(traced, 0);
  const Virtual vp = virtual_metrics(r);
  const Virtual vt = virtual_metrics(tr);
  auto c = [&r, ops](const char* name) { return ratio(r.count(name), ops); };

  std::vector<Metric> ms = {
      {"sim.events_per_op", c("events"), "1/op", "count"},
      {"sim.host_ns_per_event",
       ratio(static_cast<double>(tracer.agg(xcheck ? SpanKind::check_seed
                                                   : SpanKind::run_slice).self_ns),
             tr.count("events") * static_cast<double>(traced.size())),
       "ns/event", "host"},
      {"core.polls_per_op", c("polls"), "1/op", "count"},
      {"core.empty_poll_ratio", ratio(r.count("empty_polls"), r.count("polls")),
       "ratio", "count"},
      {"core.tx_host_ns_per_op",
       span_ns_per_op(tracer, SpanKind::call, traced_ops, false) +
           span_ns_per_op(tracer, SpanKind::reply, traced_ops, false),
       "ns/op", "host"},
      {"core.handler_host_ns_per_op",
       span_ns_per_op(tracer, SpanKind::handler, traced_ops, true), "ns/op", "host"},
      {"core.acks_per_op", c("acks_tx"), "1/op", "count"},
      {"core.window_stalls_per_op", c("window_stalls"), "1/op", "count"},
      {"core.flowctl_queued_per_op", c("flowctl_queued"), "1/op", "count"},
      {"core.reads_per_op", c("reads_issued"), "1/op", "count"},
      {"memcache.allocs_per_op", c("mc_allocs"), "1/op", "count"},
      {"memcache.grow_events", r.count("mc_grows"), "count", "count"},
      {"memcache.peak_in_use_mb", r.count("mc_peak_in_use_bytes") / 1048576.0,
       "MB", "count"},
      // CRC32C covers every payload once at the sender and once at the
      // receiver, plus each stamped 64 B header at both ends.
      {"crc.bytes_per_op",
       ratio(r.count("bytes_tx") + r.count("bytes_rx") +
                 2 * 64 * r.count("crc_stamped_tx"),
             ops),
       "B/op", "count"},
      {"crc.host_ns_per_kb",
       ratio(static_cast<double>(tr.crc_probe_ns),
             static_cast<double>(tr.crc_probe_bytes) / 1024.0),
       "ns/KB", "host"},
      {"rnic.doorbells_per_op", c("nic_doorbells"), "1/op", "count"},
      {"rnic.wrs_per_doorbell", ratio(r.count("nic_wrs"), r.count("nic_doorbells")),
       "ratio", "count"},
      {"rnic.inline_share", ratio(r.count("nic_inline_wrs"), r.count("nic_wrs")),
       "ratio", "count"},
      {"rnic.cnps", r.count("nic_cnps"), "count", "count"},
      {"rnic.retx_packets", r.count("nic_retx"), "count", "count"},
      {"rnic.rnr_events", r.count("nic_rnr"), "count", "count"},
      {"net.ecn_marks", r.count("ecn_marks"), "count", "count"},
      {"net.pause_us", r.count("pause_ns") / 1e3, "us", "virtual"},
      {"net.drops", r.count("drops"), "count", "count"},
      {"net.max_queue_kb", r.count("max_queue_bytes") / 1024.0, "KB", "count"},
  };
  for (const char* st : {"post", "wire", "pickup", "handler", "rsp_post",
                         "rsp_wire", "rsp_pickup"}) {
    const auto it = tr.stages.find(st);
    const std::vector<double> d =
        it == tr.stages.end() ? std::vector<double>{} : to_us(it->second);
    ms.push_back({std::string("trace.") + st + ".p50_us", percentile(d, 0.5),
                  "us", "virtual"});
    ms.push_back({std::string("trace.") + st + ".p99_us", percentile(d, 0.99),
                  "us", "virtual"});
  }
  const RoundResult& chk = xcheck ? r : check_on.front();
  const double chk_seeds = static_cast<double>(chk.attempted);
  const double chk_host = xcheck ? host_plain : host_us_per_op(chk);
  ms.insert(ms.end(), {
      {"recorder.events_per_op", c("recorder_appended"), "1/op", "count"},
      {"check.events_per_seed", ratio(chk.count("events"), chk_seeds), "1/seed",
       "count"},
      {"check.oracle_host_share",
       1 - ratio(host_us_per_op(check_off.front()), chk_host), "ratio", "host"},
      {"check.faults_per_seed", ratio(chk.count("faults"), chk_seeds), "1/seed",
       "count"},
      {"setup.connect_host_ms", median(connect), "ms", "host"},
      {"trace_overhead", ratio(host_traced, host_plain), "ratio",
       "host"},
      {"trace.shift_lat_p50", ratio(vt.p50, vp.p50), "ratio", "virtual"},
      {"trace.shift_lat_p99", ratio(vt.p99, vp.p99), "ratio", "virtual"},
  });

  std::printf("workload %s, seed %llu: %zu untraced + %zu traced rounds of %llu "
              "%s (traced: 1 message in 16 carries a trace block)\n",
              w.c_str(), static_cast<unsigned long long>(opt.seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(r.attempted),
              xcheck ? "seeds" : "ops");
  print_metrics(ms);
  print_rounds("untraced", plain);
  print_rounds("traced", traced);
  std::printf("  complete sampled chains: %zu\n",
              tr.stages.count("post") ? tr.stages.at("post").size() : 0);

  if (!spans_out.empty()) {
    std::ofstream f(spans_out);
    f << tracer.to_json();
    std::printf("spans: %zu written to %s%s\n", tracer.spans().size(),
                spans_out.c_str(), tracer.truncated() ? " (truncated)" : "");
  }

  Totals t;
  t.add(plain);
  t.add(traced);
  t.add(check_on);
  t.add(check_off);
  const bool det = same_digests(plain) && same_digests(traced);
  print_outcome(t, det, plain.size());
  const bool correct = det && t.failed == 0 && t.mismatches == 0;
  std::printf("%s\n", json_line(correct, t.attempted, t.failed, ms).c_str());
  return correct ? 0 : 1;
}

/// One-time load sweep that fixed the open-loop rates (see README.md).
int run_sweep(const std::string& w, std::uint64_t seed) {
  std::vector<double> rates;
  std::uint64_t ops = 0;
  if (w == "rpc_small") {
    rates = {1e6, 2e6, 3e6, 4e6, 5e6, 6e6};
    ops = 60000;
  } else if (w == "storage_write") {
    rates = {2000, 3000, 4000, 5000, 6000, 7000, 8000};
    ops = 800;
  } else {
    std::fprintf(stderr, "sweep: open-loop workloads only\n");
    return 2;
  }
  std::printf("%-10s %10s %10s %12s %8s %8s %8s\n", "rate", "p50_us", "p99_us",
              "ops_per_s", "cnps", "ecn", "failed");
  for (double rate : rates) {
    RoundOptions o;
    o.seed = seed;
    o.shape = {rate, ops};
    const RoundResult r = perfbench::run_round(w, o);
    const Virtual v = virtual_metrics(r);
    std::printf("%-10.0f %10.3f %10.3f %12.1f %8.0f %8.0f %8llu\n", rate, v.p50,
                v.p99, v.ops_per_s, r.count("nic_cnps"), r.count("ecn_marks"),
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: xr_bench --workload W --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n       xr_bench --sweep W --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, sweep, spans_out;
  std::uint64_t seed = 1;
  double secs = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      secs = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--spans-out") {
      spans_out = v;
    } else if (k == "--sweep") {
      sweep = v;
    } else {
      return usage();
    }
  }
  if (!sweep.empty()) return run_sweep(sweep, seed);
  if (!perfbench::known_workload(workload) || secs <= 0 || trace < 0 || trace > 1) {
    return usage();
  }
  RoundOptions opt;
  opt.seed = seed;
  opt.shape = perfbench::default_shape(workload);
  return trace ? run_traced(workload, opt, secs, spans_out)
               : run_end_to_end(workload, opt, secs);
}
