#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>

#include "analysis/trace.hpp"
#include "check/harness.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace perfbench {
namespace {

using namespace xrdma;

constexpr Nanos kSlice = micros(100);       // one engine run_until step
constexpr Nanos kRpcTimeout = millis(100);  // the library's default
constexpr std::uint32_t kTraceMask = 15;    // traced rounds: 1 msg in 16
constexpr std::uint64_t kWarmupDiv = 20;    // first 1/20 of ops: warm-up

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

/// Seeded payload pool of real buffers, built during set-up. An entry of
/// at least 4 bytes starts with its own index (little-endian u32) so a
/// server can tell which entry a request names; the rest is random bytes.
struct Pool {
  std::vector<Buffer> bufs;

  Pool(Rng& rng, std::size_t size, std::size_t count) {
    bufs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Buffer b = Buffer::make(size);
      std::uint8_t* p = b.data();
      for (std::size_t off = 0; off < size; off += 8) {
        const std::uint64_t v = rng.next_u64();
        std::memcpy(p + off, &v, std::min<std::size_t>(8, size - off));
      }
      if (size >= 4) {
        const auto idx = static_cast<std::uint32_t>(i);
        std::memcpy(p, &idx, 4);
      }
      bufs.push_back(std::move(b));
    }
  }
  const Buffer& pick(Rng& rng) const { return bufs[rng.next_below(bufs.size())]; }
  std::size_t index_of(const Buffer& b) const {
    std::uint32_t idx = 0;
    if (b.size() >= 4 && b.data()) std::memcpy(&idx, b.data(), 4);
    return idx % bufs.size();
  }
};

bool same_bytes(const Buffer& got, const Buffer& want) {
  return got.size() == want.size() && got.data() != nullptr &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// Payload verification, timed so the timed phase can exclude it.
struct Checker {
  Tracer* tracer = nullptr;
  std::int64_t ns = 0;
  std::uint64_t mismatches = 0;

  bool check(const Buffer& got, const Buffer& want, std::uint64_t op) {
    Scoped s(tracer, SpanKind::verify, op);
    const std::int64_t t0 = wall_ns();
    const bool ok = same_bytes(got, want);
    ns += wall_ns() - t0;
    if (!ok) ++mismatches;
    return ok;
  }
};

/// One client->server channel pair. Requests are delivered in send order
/// (the seq-ack window guarantees exactly-once in-order delivery), so the
/// server checks each arrival against the front of `expect`.
struct Link {
  struct Expect {
    const Buffer* want;
    std::uint64_t op;
  };
  core::Channel* cli = nullptr;
  core::Channel* srv = nullptr;
  std::deque<Expect> expect;
};

/// Completion bookkeeping shared by the three traffic workloads.
struct Tally {
  RoundResult res;
  Nanos first_due = -1;
  Nanos last_done = 0;
  bool stopped = false;  // set before tear-down; late callbacks are ignored

  std::uint64_t resolved() const { return res.completed + res.failed; }
  void fail() { ++res.failed; }
  void ok(bool measured, Nanos due, Nanos now, std::uint64_t bytes) {
    ++res.completed;
    if (!measured) return;
    res.lat.push_back(now - due);
    ++res.measured;
    res.payload_bytes += bytes;
    if (first_due < 0 || due < first_due) first_due = due;
    last_done = std::max(last_done, now);
  }
};

/// Cluster + contexts + links of one traffic round.
class Rig {
 public:
  using Handler = std::function<void(Link&, core::Channel&, core::Msg&&)>;

  Rig(int hosts, std::uint64_t seed, Tracer* tracer)
      : cluster_(cluster_config(hosts, seed)), tracer_(tracer) {
    checker.tracer = tracer;
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  sim::Engine& engine() { return cluster_.engine(); }

  core::Context& add_context(int host) {
    core::Config cfg;
    if (tracer_) cfg.trace_sample_mask = kTraceMask;
    ctxs_.push_back(
        std::make_unique<core::Context>(cluster_.rnic(host), cluster_.cm(), cfg));
    core::Context& ctx = *ctxs_.back();
    // Pin the epoch: the default one draws on a process-wide counter, which
    // would make two same-seed rounds in one process diverge.
    ctx.set_trace_epoch(static_cast<std::uint64_t>(ctxs_.size()) << 40);
    if (tracer_) spans_.attach(ctx);
    return ctx;
  }

  /// Dials `srv` from `cli` on a port of its own, so the accepted channel
  /// is known to belong to this link.
  Link& link(core::Context& cli, core::Context& srv) {
    links_.push_back(std::make_unique<Link>());
    Link* l = links_.back().get();
    const auto port = static_cast<std::uint16_t>(7000 + links_.size());
    srv.listen(port, [this, l](core::Channel& ch) {
      l->srv = &ch;
      ch.set_on_msg([this, l](core::Channel& c, core::Msg&& m) {
        serving_op_ = l->expect.empty() ? 0 : l->expect.front().op;
        Scoped s(tracer_, SpanKind::handler, serving_op_);
        on_request(*l, c, std::move(m));
      });
    });
    cli.connect(srv.node(), port, [l](Result<core::Channel*> r) {
      if (r.ok()) l->cli = r.value();
    });
    return *l;
  }

  /// Completes the CM handshakes and starts every poll loop.
  bool establish() {
    cluster_.run_for(millis(30));
    for (const auto& l : links_) {
      if (!l->cli || !l->srv) return false;
    }
    for (const auto& c : ctxs_) c->start_polling_loop();
    return true;
  }

  Errc call(Link& l, const Buffer& req, core::Channel::RpcCallback cb,
            std::uint64_t op) {
    l.expect.push_back({&req, op});
    Errc rc;
    {
      Scoped s(tracer_, SpanKind::call, op);
      rc = l.cli->call(req, std::move(cb), kRpcTimeout);
    }
    if (rc != Errc::ok) l.expect.pop_back();
    return rc;
  }

  /// Server side: checks a request against what its link sent next.
  bool take_request(Link& l, const core::Msg& m) {
    if (l.expect.empty()) {
      ++checker.mismatches;
      return false;
    }
    const Link::Expect e = l.expect.front();
    l.expect.pop_front();
    return checker.check(m.payload, *e.want, e.op);
  }

  void reply(core::Channel& ch, const core::Msg& m, const Buffer& rsp) {
    Scoped s(tracer_, SpanKind::reply, serving_op_);
    // A failed reply surfaces as the caller's timeout.
    (void)ch.reply(m.rpc_id, rsp, m.traced ? m.trace_id : 0);
  }

  /// Runs the engine in kSlice steps until `done()` or `limit` elapses.
  template <typename Done>
  void run(Done done, Nanos limit) {
    const Nanos end = engine().now() + limit;
    while (!done() && engine().now() < end) {
      {
        Scoped s(tracer_, SpanKind::run_slice);
        engine().run_for(kSlice);
      }
      std::uint64_t in_use = 0;
      for (const auto& c : ctxs_) {
        in_use += c->data_cache().stats().in_use_bytes +
                  c->ctrl_cache().stats().in_use_bytes;
      }
      peak_in_use_ = std::max(peak_in_use_, in_use);
    }
  }

  /// Cumulative counters of every layer, summed over hosts and contexts.
  std::vector<std::pair<std::string, double>> snapshot() {
    std::vector<std::pair<std::string, double>> s;
    auto put = [&s](const char* n, double v) { s.emplace_back(n, v); };
    put("events", static_cast<double>(engine().events_processed()));
    core::ContextStats cs;
    core::ChannelStats ch;
    std::uint64_t mc_allocs = 0, mc_grows = 0, rec = 0, dead = 0;
    for (const auto& c : ctxs_) {
      cs.polls += c->stats().polls;
      cs.empty_polls += c->stats().empty_polls;
      for (core::MemCache* m : {&c->data_cache(), &c->ctrl_cache()}) {
        mc_allocs += m->stats().alloc_calls;
        mc_grows += m->stats().grow_events;
      }
      rec += c->recorder().appended();
      dead += c->health().stats().dead_declarations;
      for (core::Channel* x : c->channels()) {
        const core::ChannelStats& y = x->stats();
        ch.acks_tx += y.acks_tx;
        ch.window_stalls += y.window_stalls;
        ch.flowctl_queued += y.flowctl_queued;
        ch.reads_issued += y.reads_issued;
        ch.bytes_tx += y.bytes_tx;
        ch.bytes_rx += y.bytes_rx;
        ch.crc_stamped_tx += y.crc_stamped_tx;
        ch.rpc_timeouts += y.rpc_timeouts;
        ch.tx_would_block += y.tx_would_block;
        ch.recoveries_started += y.recoveries_started;
      }
    }
    put("polls", static_cast<double>(cs.polls));
    put("empty_polls", static_cast<double>(cs.empty_polls));
    put("acks_tx", static_cast<double>(ch.acks_tx));
    put("window_stalls", static_cast<double>(ch.window_stalls));
    put("flowctl_queued", static_cast<double>(ch.flowctl_queued));
    put("reads_issued", static_cast<double>(ch.reads_issued));
    put("bytes_tx", static_cast<double>(ch.bytes_tx));
    put("bytes_rx", static_cast<double>(ch.bytes_rx));
    put("crc_stamped_tx", static_cast<double>(ch.crc_stamped_tx));
    put("rpc_timeouts", static_cast<double>(ch.rpc_timeouts));
    put("would_block", static_cast<double>(ch.tx_would_block));
    put("recoveries", static_cast<double>(ch.recoveries_started));
    put("mc_allocs", static_cast<double>(mc_allocs));
    put("mc_grows", static_cast<double>(mc_grows));
    put("recorder_appended", static_cast<double>(rec));
    put("dead_declarations", static_cast<double>(dead));
    rnic::RnicStats n;
    Nanos pause = 0;
    std::uint64_t maxq = 0;
    for (int h = 0; h < cluster_.num_hosts(); ++h) {
      const rnic::RnicStats& r = cluster_.rnic(h).stats();
      n.doorbells += r.doorbells;
      n.wrs_posted += r.wrs_posted;
      n.inline_wrs += r.inline_wrs;
      n.cnps_received += r.cnps_received;
      n.retransmitted_packets += r.retransmitted_packets;
      n.rnr_events += r.rnr_events;
      maxq = std::max({maxq,
                       cluster_.fabric().host_ingress_port_stats(h).max_queue_bytes,
                       cluster_.fabric().endpoint(h).tx_stats().max_queue_bytes});
    }
    const net::FabricStats f = cluster_.fabric().stats();
    pause = f.host_tx_pause_time;
    put("nic_doorbells", static_cast<double>(n.doorbells));
    put("nic_wrs", static_cast<double>(n.wrs_posted));
    put("nic_inline_wrs", static_cast<double>(n.inline_wrs));
    put("nic_cnps", static_cast<double>(n.cnps_received));
    put("nic_retx", static_cast<double>(n.retransmitted_packets));
    put("nic_rnr", static_cast<double>(n.rnr_events));
    put("ecn_marks", static_cast<double>(f.ecn_marks));
    put("drops", static_cast<double>(f.drops));
    put("pause_ns", static_cast<double>(pause));
    // Levels, not counters: reported as-is by delta().
    put("max_queue_bytes", static_cast<double>(maxq));
    put("mc_peak_in_use_bytes", static_cast<double>(peak_in_use_));
    return s;
  }

  static std::vector<std::pair<std::string, double>> delta(
      const std::vector<std::pair<std::string, double>>& before,
      const std::vector<std::pair<std::string, double>>& after) {
    std::vector<std::pair<std::string, double>> d = after;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const bool level = d[i].first == "max_queue_bytes" ||
                         d[i].first == "mc_peak_in_use_bytes";
      if (!level) d[i].second -= before[i].second;
    }
    return d;
  }

  /// Virtual stage decomposition of every complete sampled chain.
  std::map<std::string, std::vector<Nanos>> stages() const {
    std::map<std::string, std::vector<Nanos>> out;
    for (const analysis::SpanChain& c : spans_.chains()) {
      if (!c.complete()) continue;
      for (const analysis::Stage& st : spans_.decompose(c)) {
        out[st.name].push_back(st.duration);
      }
    }
    return out;
  }

 private:
  static testbed::ClusterConfig cluster_config(int hosts, std::uint64_t seed) {
    testbed::ClusterConfig cfg = testbed::ClusterConfig::rack(hosts);
    cfg.fabric.seed = seed;
    return cfg;
  }

 public:
  // Declared ahead of the cluster and contexts so both outlive any callback
  // a context runs while it is torn down.
  Handler on_request;
  Checker checker;

 private:
  testbed::Cluster cluster_;
  Tracer* tracer_;
  analysis::SpanCollector spans_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<core::Context>> ctxs_;
  std::uint64_t peak_in_use_ = 0;
  std::uint64_t serving_op_ = 0;  // op whose request the handler is serving
};

/// Poisson arrivals at `rate` per virtual second, conditioned on exactly
/// `count` of them falling in [0, count / rate): sorted uniform offsets.
/// Every seed then offers the same rate over the same window and only the
/// arrival pattern varies, so ops_per_s measures the system, not the draw.
std::vector<Nanos> poisson_arrivals(Rng& rng, double rate, std::uint64_t count) {
  const double window_ns = 1e9 * static_cast<double>(count) / rate;
  std::vector<Nanos> due(count);
  for (Nanos& d : due) d = static_cast<Nanos>(rng.next_double() * window_ns);
  std::sort(due.begin(), due.end());
  return due;
}

/// Open loop: `fire(i, due)` runs at each arrival whatever the system's
/// state, like independent callers.
class OpenLoop {
 public:
  using Fire = std::function<void(std::uint64_t, Nanos)>;
  OpenLoop(sim::Engine& eng, std::vector<Nanos> due, Fire fire)
      : eng_(eng), due_(std::move(due)), fire_(std::move(fire)) {}

  void start(Nanos at) {
    base_ = at;
    if (!due_.empty()) arm();
  }

 private:
  void arm() {
    eng_.schedule_at(base_ + due_[next_], [this] {
      const std::size_t i = next_++;
      fire_(i, base_ + due_[i]);
      if (next_ < due_.size()) arm();
    });
  }

  sim::Engine& eng_;
  std::vector<Nanos> due_;
  Fire fire_;
  Nanos base_ = 0;
  std::size_t next_ = 0;
};

/// Everything after set-up that the three traffic workloads share: counter
/// deltas, timed-phase CPU time net of payload checks, failures for ops
/// that never resolved, the stage decomposition and the crc32c probe.
template <typename Issue>
void timed_phase(Rig& rig, Tally& t, const RoundOptions& opt,
                 const std::vector<const Pool*>& pools, Nanos limit,
                 Issue issue) {
  const auto before = rig.snapshot();
  const std::int64_t verify0 = rig.checker.ns;
  const std::int64_t cpu0 = thread_cpu_ns();
  issue();
  rig.run([&] { return t.resolved() >= opt.shape.ops; }, limit);
  t.res.timed_cpu_ns = thread_cpu_ns() - cpu0 - (rig.checker.ns - verify0);
  t.res.counts = Rig::delta(before, rig.snapshot());
  t.res.attempted = opt.shape.ops;
  if (t.resolved() < opt.shape.ops) t.res.failed += opt.shape.ops - t.resolved();
  t.res.mismatches = rig.checker.mismatches;
  t.res.v_span = t.first_due >= 0 ? t.last_done - t.first_due : 0;
  t.stopped = true;
  if (!opt.tracer) return;
  t.res.stages = rig.stages();
  // crc32c over this workload's own payloads, ~4 MB worth, one span per
  // pass over the pools (a span per call would cost more than a 64 B CRC).
  std::uint32_t sink = 0;
  const std::int64_t c0 = wall_ns();
  for (std::uint64_t pass = 0; t.res.crc_probe_bytes < (4u << 20); ++pass) {
    Scoped s(opt.tracer, SpanKind::crc_probe, pass);
    for (const Pool* p : pools) {
      for (const Buffer& b : p->bufs) {
        sink ^= crc32c(b.data(), b.size());
        t.res.crc_probe_bytes += b.size();
      }
    }
  }
  t.res.crc_probe_ns = wall_ns() - c0;
  t.res.digest ^= sink;  // keeps the probe's result live
}

void finish_setup(RoundResult& r, std::int64_t t0, std::int64_t t_conn0,
                  std::int64_t t_conn1) {
  r.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  r.connect_s = static_cast<double>(t_conn1 - t_conn0) * 1e-9;
}

// rpc_small: open-loop Poisson 64 B echo RPCs, one client context, four
// channels, one server, 2-host rack.
RoundResult rpc_small(const RoundOptions& opt) {
  static constexpr int kChannels = 4;
  static constexpr std::size_t kSize = 64;
  Tally t;
  const std::int64_t t0 = wall_ns();
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  const Pool pool(rng, kSize, 1024);
  Rig rig(2, opt.seed, opt.tracer);
  core::Context& srv = rig.add_context(1);
  core::Context& cli = rig.add_context(0);
  rig.on_request = [&rig](Link& l, core::Channel& ch, core::Msg&& m) {
    if (rig.take_request(l, m)) rig.reply(ch, m, m.payload);
  };
  std::vector<Link*> links;
  for (int i = 0; i < kChannels; ++i) links.push_back(&rig.link(cli, srv));
  std::vector<Nanos> arrivals = poisson_arrivals(rng, opt.shape.rate, opt.shape.ops);
  const std::int64_t tc = wall_ns();
  const bool up = rig.establish();
  finish_setup(t.res, t0, tc, wall_ns());
  if (!up) {
    t.res.attempted = t.res.failed = opt.shape.ops;
    return t.res;
  }
  if (opt.setup_only) return t.res;

  const std::uint64_t warm = opt.shape.ops / kWarmupDiv;
  OpenLoop gen(rig.engine(), std::move(arrivals),
               [&](std::uint64_t op, Nanos due) {
                 Link& l = *links[rng.next_below(kChannels)];
                 const Buffer* req = &pool.pick(rng);
                 const Errc rc = rig.call(
                     l, *req,
                     [&t, &rig, req, op, due, warm](Result<core::Msg> r) {
                       if (t.stopped) return;
                       if (!r.ok() || !rig.checker.check(r.value().payload, *req, op)) {
                         t.fail();
                         return;
                       }
                       t.ok(op >= warm, due, rig.engine().now(), 2 * kSize);
                     },
                     op);
                 if (rc != Errc::ok) t.fail();
               });
  const Nanos span = static_cast<Nanos>(1e9 * static_cast<double>(opt.shape.ops) /
                                        opt.shape.rate);
  timed_phase(rig, t, opt, {&pool}, 3 * span + millis(200),
              [&] { gen.start(rig.engine().now() + micros(1)); });
  return t.res;
}

// storage_write: Pangu-shaped 128 KB writes, 4 writers x open-loop Poisson,
// each write replicated to 3 of 4 chunk servers; done when all 3 ack.
RoundResult storage_write(const RoundOptions& opt) {
  static constexpr int kWriters = 4;
  static constexpr int kChunks = 4;
  static constexpr std::size_t kSize = 128 * 1024;
  Tally t;
  const std::int64_t t0 = wall_ns();
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 2);
  const Pool pool(rng, kSize, 16);
  const Pool ack(rng, 8, 1);
  const std::uint64_t per_writer = opt.shape.ops / kWriters;
  std::vector<std::unique_ptr<Rng>> wrng;
  std::vector<std::vector<Nanos>> arrivals;
  for (int w = 0; w < kWriters; ++w) {
    wrng.push_back(std::make_unique<Rng>(rng.next_u64()));
    arrivals.push_back(poisson_arrivals(*wrng.back(), opt.shape.rate, per_writer));
  }
  Rig rig(kWriters + kChunks, opt.seed, opt.tracer);
  std::vector<core::Context*> writers, chunks;
  for (int w = 0; w < kWriters; ++w) writers.push_back(&rig.add_context(w));
  for (int c = 0; c < kChunks; ++c) chunks.push_back(&rig.add_context(kWriters + c));
  rig.on_request = [&rig, &ack](Link& l, core::Channel& ch, core::Msg&& m) {
    if (rig.take_request(l, m)) rig.reply(ch, m, ack.bufs[0]);
  };
  std::vector<std::vector<Link*>> links(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int c = 0; c < kChunks; ++c) links[w].push_back(&rig.link(*writers[w], *chunks[c]));
  }
  const std::int64_t tc = wall_ns();
  const bool up = rig.establish();
  finish_setup(t.res, t0, tc, wall_ns());
  if (!up) {
    t.res.attempted = t.res.failed = opt.shape.ops;
    return t.res;
  }
  if (opt.setup_only) return t.res;

  struct Write {
    Nanos due;
    int pending;
    bool failed;
  };
  const std::uint64_t warm = per_writer / kWarmupDiv;
  std::vector<std::unique_ptr<OpenLoop>> gens;
  for (int w = 0; w < kWriters; ++w) {
    Rng* r = wrng[static_cast<std::size_t>(w)].get();
    gens.push_back(std::make_unique<OpenLoop>(
        rig.engine(), std::move(arrivals[static_cast<std::size_t>(w)]),
        [&, w, r](std::uint64_t i, Nanos due) {
          const std::uint64_t op = static_cast<std::uint64_t>(w) * per_writer + i;
          const std::uint64_t skip = r->next_below(kChunks);
          const Buffer& data = pool.pick(*r);
          auto wr = std::make_shared<Write>(Write{due, kChunks - 1, false});
          auto settle = [&t, &rig, wr, i, warm] {
            if (--wr->pending > 0) return;
            if (wr->failed) {
              t.fail();
            } else {
              t.ok(i >= warm, wr->due, rig.engine().now(), (kChunks - 1) * kSize);
            }
          };
          for (int c = 0; c < kChunks; ++c) {
            if (static_cast<std::uint64_t>(c) == skip) continue;
            const Errc rc = rig.call(
                *links[w][c], data,
                [&t, &rig, &ack, wr, settle, op](Result<core::Msg> res) {
                  if (t.stopped) return;
                  if (!res.ok() || !rig.checker.check(res.value().payload, ack.bufs[0], op)) {
                    wr->failed = true;
                  }
                  settle();
                },
                op);
            if (rc != Errc::ok) {
              wr->failed = true;
              settle();
            }
          }
        }));
  }
  const Nanos span = static_cast<Nanos>(1e9 * static_cast<double>(per_writer) /
                                        opt.shape.rate);
  timed_phase(rig, t, opt, {&pool}, 3 * span + millis(200), [&] {
    for (auto& g : gens) g->start(rig.engine().now() + micros(1));
  });
  return t.res;
}

// db_txn: X-DB-shaped closed loop. 4 front-ends x 8 in-flight transactions
// against one server; a transaction reads a 16 KB page (16 B request, the
// response pulled by the requester) and then writes a 4 KB log record.
RoundResult db_txn(const RoundOptions& opt) {
  constexpr int kFrontEnds = 4;
  constexpr int kInflight = 8;
  static constexpr std::size_t kReq = 16, kPage = 16 * 1024, kLog = 4 * 1024;
  static constexpr double kThinkNs = 2000;
  Tally t;
  const std::int64_t t0 = wall_ns();
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 3);
  const Pool reqs(rng, kReq, 256);
  const Pool pages(rng, kPage, 256);
  const Pool logs(rng, kLog, 64);
  const Pool ack(rng, 8, 1);
  Rig rig(kFrontEnds + 1, opt.seed, opt.tracer);
  core::Context& srv = rig.add_context(kFrontEnds);
  std::vector<Link*> links;
  for (int f = 0; f < kFrontEnds; ++f) {
    links.push_back(&rig.link(rig.add_context(f), srv));
  }
  rig.on_request = [&](Link& l, core::Channel& ch, core::Msg&& m) {
    if (!rig.take_request(l, m)) return;
    if (m.payload.size() == kReq) {
      rig.reply(ch, m, pages.bufs[reqs.index_of(m.payload) % pages.bufs.size()]);
    } else {
      rig.reply(ch, m, ack.bufs[0]);
    }
  };
  const std::int64_t tc = wall_ns();
  const bool up = rig.establish();
  finish_setup(t.res, t0, tc, wall_ns());
  if (!up) {
    t.res.attempted = t.res.failed = opt.shape.ops;
    return t.res;
  }
  if (opt.setup_only) return t.res;

  const std::uint64_t warm = opt.shape.ops / kWarmupDiv;
  std::uint64_t issued = 0;
  std::function<void(Link*)> start_txn;
  // A DB thread does work of its own between transactions: a seeded
  // exponential think time. It is also what makes one seed's interleaving
  // differ from another's; the sizes alone are the same for every seed.
  auto next_txn = [&rig, &rng, &start_txn](Link* l) {
    const auto think = static_cast<Nanos>(rng.exponential(kThinkNs));
    rig.engine().schedule_after(think, [&start_txn, l] { start_txn(l); });
  };
  start_txn = [&](Link* l) {
    if (t.stopped || issued >= opt.shape.ops) return;
    const std::uint64_t op = issued++;
    const Nanos start = rig.engine().now();
    const Buffer* req = &reqs.pick(rng);
    const Buffer* page = &pages.bufs[reqs.index_of(*req) % pages.bufs.size()];
    const Buffer* log = &logs.pick(rng);
    auto fail_and_next = [&t, &next_txn, l] {
      t.fail();
      next_txn(l);
    };
    auto on_logged = [&t, &rig, &ack, &next_txn, l, op, start, warm,
                      fail_and_next](Result<core::Msg> r) {
      if (t.stopped) return;
      if (!r.ok() || !rig.checker.check(r.value().payload, ack.bufs[0], op)) {
        fail_and_next();
        return;
      }
      t.ok(op >= warm, start, rig.engine().now(), kReq + kPage + kLog);
      next_txn(l);
    };
    auto on_page = [&t, &rig, l, op, page, log, on_logged,
                    fail_and_next](Result<core::Msg> r) {
      if (t.stopped) return;
      if (!r.ok() || !rig.checker.check(r.value().payload, *page, op)) {
        fail_and_next();
        return;
      }
      if (rig.call(*l, *log, on_logged, op) != Errc::ok) fail_and_next();
    };
    if (rig.call(*l, *req, on_page, op) != Errc::ok) fail_and_next();
  };
  timed_phase(rig, t, opt, {&reqs, &pages, &logs}, seconds(5), [&] {
    for (int s = 0; s < kInflight; ++s) {
      for (Link* l : links) start_txn(l);
    }
  });
  return t.res;
}

// xcheck_faults: consecutive X-Check seeds with default schedule params.
// Set-up generates the schedules; the timed phase runs them (check_seed
// is exactly generate_schedule + run_schedule).
RoundResult xcheck_faults(const RoundOptions& opt) {
  RoundResult r;
  const std::int64_t t0 = wall_ns();
  std::vector<check::Schedule> scheds;
  const std::uint64_t base = opt.seed << 20;
  for (std::uint64_t i = 0; i < opt.shape.ops; ++i) {
    scheds.push_back(check::generate_schedule(base + i));
  }
  r.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  if (opt.setup_only) return r;

  check::RunOptions ro;
  ro.verbose = false;
  ro.continuous_checks = opt.oracles;
  std::uint64_t events = 0, faults = 0;
  Nanos virt = 0;
  Digest d;
  const std::int64_t cpu0 = thread_cpu_ns();
  for (std::uint64_t i = 0; i < scheds.size(); ++i) {
    check::RunReport rep;
    {
      Scoped s(opt.tracer, SpanKind::check_seed, i);
      rep = check::run_schedule(scheds[i], ro);
    }
    ++r.attempted;
    if (rep.passed()) {
      ++r.completed;
      r.lat.push_back(rep.end_time);
      ++r.measured;
    } else {
      ++r.failed;
      ++r.violations;
    }
    events += rep.events;
    faults += rep.faults_injected;
    virt += rep.end_time;
    d.add(rep.digest);
  }
  r.timed_cpu_ns = thread_cpu_ns() - cpu0;
  r.v_span = virt;
  r.counts = {{"events", static_cast<double>(events)},
              {"faults", static_cast<double>(faults)}};
  r.digest = d.h;
  return r;
}

}  // namespace

double RoundResult::count(const std::string& name) const {
  for (const auto& [n, v] : counts) {
    if (n == name) return v;
  }
  return 0;
}

double unloaded_rtt_us(std::uint64_t seed) {
  constexpr int kWarm = 20, kPings = 200;
  Rng rng(seed);
  const Pool pool(rng, 64, 16);
  Rig rig(2, seed, nullptr);
  core::Context& srv = rig.add_context(1);
  core::Context& cli = rig.add_context(0);
  rig.on_request = [&rig](Link& l, core::Channel& ch, core::Msg&& m) {
    if (rig.take_request(l, m)) rig.reply(ch, m, m.payload);
  };
  Link& l = rig.link(cli, srv);
  if (!rig.establish()) return 0;
  int done = 0;
  Nanos total = 0;
  bool failed = false;
  std::function<void()> ping = [&] {
    const Nanos t0 = rig.engine().now();
    const Buffer* req = &pool.bufs[static_cast<std::size_t>(done) % pool.bufs.size()];
    const Errc rc = rig.call(l, *req, [&, t0, req](Result<core::Msg> r) {
      if (!r.ok() || !rig.checker.check(r.value().payload, *req, 0)) failed = true;
      if (done >= kWarm) total += rig.engine().now() - t0;
      if (++done < kWarm + kPings && !failed) ping();
    }, 0);
    if (rc != Errc::ok) failed = true;
  };
  ping();
  rig.run([&] { return failed || done >= kWarm + kPings; }, millis(100));
  if (failed || done < kWarm + kPings) return 0;
  return to_micros(total) / kPings;
}

bool known_workload(const std::string& w) {
  return w == "rpc_small" || w == "storage_write" || w == "db_txn" ||
         w == "xcheck_faults";
}

Shape default_shape(const std::string& w) {
  if (w == "rpc_small") return {3.0e6, 100000};
  if (w == "storage_write") return {4000, 4000};
  if (w == "db_txn") return {0, 20000};
  return {0, 80};  // xcheck_faults: seeds per round
}

RoundResult run_round(const std::string& w, const RoundOptions& opt) {
  RoundResult r;
  if (w == "rpc_small") r = rpc_small(opt);
  if (w == "storage_write") r = storage_write(opt);
  if (w == "db_txn") r = db_txn(opt);
  if (w == "xcheck_faults") r = xcheck_faults(opt);
  if (opt.setup_only) return r;
  Digest d;
  d.add(r.digest);
  for (Nanos l : r.lat) d.add(static_cast<std::uint64_t>(l));
  for (const auto& [n, v] : r.counts) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    d.add(bits);
  }
  for (std::uint64_t v : {r.attempted, r.completed, r.failed, r.mismatches,
                          r.payload_bytes, static_cast<std::uint64_t>(r.v_span)}) {
    d.add(v);
  }
  for (const auto& [name, durs] : r.stages) {
    for (Nanos x : durs) d.add(static_cast<std::uint64_t>(x));
  }
  r.digest = d.h;
  return r;
}

}  // namespace perfbench
