// The benchmark's four workloads. Each round builds a fresh simulated
// cluster from the seed, runs a fixed amount of work and reports:
//   - virtual-clock results (latency samples, completed ops, verified bytes),
//     deterministic for a given seed;
//   - host-clock costs (set-up, timed phase CPU time);
//   - per-layer counter deltas read from the library's public stats structs.
// Rounds of one seed must agree exactly on every virtual result and count;
// `digest` folds all of them so callers can compare rounds cheaply.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "probe.hpp"

namespace perfbench {

/// Fixed workload shape. The defaults are the benchmark's constants; the
/// one-time rate sweep (--sweep) overrides `rate` and `ops`.
struct Shape {
  double rate = 0;         // open loop: arrivals per virtual second per caller
  std::uint64_t ops = 0;   // ops in one round
};

Shape default_shape(const std::string& workload);

struct RoundOptions {
  std::uint64_t seed = 1;
  Shape shape;
  /// Non-null: record host spans and attach the virtual-stage collector
  /// (sampled req-rsp tracing), i.e. a traced round.
  Tracer* tracer = nullptr;
  /// xcheck_faults only: evaluate the continuous oracles.
  bool oracles = true;
  /// Build the cluster/inputs and stop: a set-up time sample.
  bool setup_only = false;
};

struct RoundResult {
  // --- virtual clock -------------------------------------------------------
  std::vector<xrdma::Nanos> lat;   // measured (post-warm-up) ops, ns
  xrdma::Nanos v_span = 0;         // first measured due time -> last completion
  std::uint64_t measured = 0;      // ops behind `lat`
  std::uint64_t payload_bytes = 0; // verified application bytes of those ops
  std::map<std::string, std::vector<xrdma::Nanos>> stages;  // traced only
  // --- outcome -------------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      // error, timeout, would_block or unfinished
  std::uint64_t mismatches = 0;  // payload bytes differ from the pool source
  std::uint64_t violations = 0;  // X-Check seeds with an oracle violation
  // --- host clock ----------------------------------------------------------
  double setup_s = 0;
  double connect_s = 0;           // connection-mesh part of set-up
  std::int64_t timed_cpu_ns = 0;  // timed phase, payload checks excluded
  std::int64_t crc_probe_ns = 0;  // traced: crc32c over the pool payloads
  std::uint64_t crc_probe_bytes = 0;
  // --- per-layer counts (deltas over the timed phase) ----------------------
  std::vector<std::pair<std::string, double>> counts;
  std::uint64_t digest = 0;

  double count(const std::string& name) const;
};

RoundResult run_round(const std::string& workload, const RoundOptions& opt);

bool known_workload(const std::string& workload);

/// Accuracy anchor: mean virtual RTT of back-to-back 64 B echo RPCs on an
/// unloaded 2-host rack with the default config; 0 if a ping failed.
double unloaded_rtt_us(std::uint64_t seed);

}  // namespace perfbench
