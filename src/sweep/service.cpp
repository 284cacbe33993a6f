#include "sweep/service.h"

#include "sweep/coordinator.h"
#include "sweep/lease.h"
#include "sweep/net.h"
#include "sweep/pool.h"
#include "sweep/wire.h"
#include "tensor/tensor.h"
#include "util/csv.h"
#include "util/faultinject.h"
#include "util/log.h"
#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include <poll.h>
#include <unistd.h>

namespace xs::sweep {

namespace {

std::atomic<bool> g_drain{false};

// One connected agent host, joined or not. The host id is the lease owner
// token; a reconnecting agent gets a fresh id, so acks and fails from its
// previous incarnation can never be mistaken for the current lease holder.
struct Host {
    std::int64_t id = -1;
    int fd = -1;
    wire::MessageReader reader;
    bool joined = false;
    std::int64_t capacity = 0;
    // Scheduler positions dealt here and not yet acked/failed back by this
    // host. A lease that expires and is re-dealt elsewhere stays in this
    // list — the slow host's worker is still genuinely busy on it.
    std::vector<std::size_t> leased;
    double last_heard = 0.0;
    std::int64_t cells_done = 0;

    std::string name() const { return "host" + std::to_string(id); }
};

// The join handshake must prove the agent expands the *exact same grid*,
// not just the same experiment config: sweep_config_fingerprint covers the
// inputs that change a cell's result (it gates manifest resume, where a
// grown grid is legal), but an agent running --sizes=32 against a
// --sizes=16 service shares that fingerprint while producing cells this
// sweep never dealt — which must never blend into the manifest. So the
// wire fingerprint appends an order-sensitive FNV-1a hash over every
// expanded cell id plus the cell count.
std::string join_fingerprint(const std::string& config_fp,
                             const std::vector<SweepCell>& cells) {
    std::uint64_t h = 1469598103934665603ull;
    for (const SweepCell& c : cells) {
        for (const char ch : c.id())
            h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
        h = (h ^ 0xffu) * 1099511628211ull;  // id separator
    }
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i, h >>= 4) hex[i] = "0123456789abcdef"[h & 15];
    return config_fp + "/grid-" + std::to_string(cells.size()) + "-" + hex;
}

}  // namespace

void request_drain() { g_drain.store(true, std::memory_order_relaxed); }
bool drain_requested() { return g_drain.load(std::memory_order_relaxed); }

SweepSummary run_service(core::ExperimentContext& ctx, const SweepSpec& spec,
                         const SweepOptions& opts, const ServiceOptions& svc) {
    SweepCoordinator coord(ctx, spec, opts);
    if (coord.pending().empty()) return coord.finish();
    const std::vector<SweepCell>& cells = coord.cells();
    SweepSummary& summary = coord.summary();
    const std::string join_fp =
        join_fingerprint(sweep_config_fingerprint(ctx, spec), cells);

    LeaseScheduler sched(coord.pending(), svc.max_cell_retries,
                         svc.retry_backoff_ms);
    util::metrics::Snapshot host_metrics;  // kMetrics frames, all hosts

    // A host dying mid-send surfaces as EPIPE on our write, not a signal.
    ::signal(SIGPIPE, SIG_IGN);

    std::string net_err;
    const int listen_fd = svc.listen_fd >= 0
                              ? svc.listen_fd
                              : net::listen_on(svc.port, &net_err);
    tensor::check(listen_fd >= 0, "service: cannot listen: " + net_err);
    util::log_info("service: listening on port " +
                   std::to_string(net::bound_port(listen_fd)) + " with " +
                   std::to_string(sched.size()) + " cell(s) to deal");

    std::vector<std::unique_ptr<Host>> hosts;
    std::int64_t next_host_id = 0;
    const double lease_ms = opts.cell_budget_ms;

    // Declare a host dead: every lease it still owns fails (re-deal with
    // backoff elsewhere); leases it was slow on (owner already moved) just
    // vanish with it. The fd closes; a reconnecting agent is a new host.
    const auto host_dead = [&](Host& h, const std::string& why) {
        util::log_warn("service: " + h.name() + " " + why +
                       (h.leased.empty()
                            ? ""
                            : " with " + std::to_string(h.leased.size()) +
                                  " lease(s)"));
        for (const std::size_t p : h.leased)
            if (sched.at(p).in_flight && sched.at(p).owner == h.id)
                coord.attempt_failed(sched, p, h.name() + " " + why);
        h.leased.clear();
        ::close(h.fd);
        h.fd = -1;
    };

    const auto purge_dead = [&]() {
        hosts.erase(std::remove_if(hosts.begin(), hosts.end(),
                                   [](const std::unique_ptr<Host>& h) {
                                       return h->fd < 0;
                                   }),
                    hosts.end());
    };

    // Decode, dedup and record one ack from h. Returns why the host is
    // misbehaving (an undecodable ack, or a cell outside this sweep), or ""
    // when the ack was recorded or deduped.
    const auto take_ack = [&](Host& h, const std::string& payload) {
        std::string id;
        CellResult r;
        if (!decode_manifest_line(payload, id, r))
            return std::string("sent an undecodable ack");
        const std::int64_t p = coord.position(id);
        if (p >= 0)
            h.leased.erase(std::remove(h.leased.begin(), h.leased.end(),
                                       static_cast<std::size_t>(p)),
                           h.leased.end());
        switch (coord.record(id, r, h.name())) {
            case SweepCoordinator::Ack::kForeign:
                return "acked a cell outside this sweep (" + id + ")";
            case SweepCoordinator::Ack::kRecorded:
                sched.ack(static_cast<std::size_t>(p));
                ++h.cells_done;
                break;
            case SweepCoordinator::Ack::kDuplicate:
                break;
        }
        return std::string();
    };

    const auto take_metrics = [&](const Host& h, const std::string& payload) {
        util::metrics::Snapshot snap;
        if (util::metrics::from_json(payload, snap))
            util::metrics::merge(host_metrics, snap);
        else
            util::log_warn("service: discarding an unparsable metrics frame "
                           "from " + h.name());
    };

    std::vector<pollfd> fds;
    std::vector<Host*> fd_host;
    double next_hb = now_ms() + svc.heartbeat_ms;
    while (!sched.all_done()) {
        const bool draining = svc.drain || drain_requested();
        if (draining && sched.in_flight_count() == 0) break;
        const double now = now_ms();

        // Deal: fill each joined host to its capacity, lowest-index
        // eligible cell first. Draining deals nothing — in-flight leases
        // run out (ack or expiry) and the loop exits above.
        if (!draining) {
            for (auto& hp : hosts) {
                Host& h = *hp;
                if (h.fd < 0 || !h.joined) continue;
                while (static_cast<std::int64_t>(h.leased.size()) <
                       h.capacity) {
                    const std::int64_t p = sched.next_eligible(now);
                    if (p < 0) break;
                    const std::size_t pi = static_cast<std::size_t>(p);
                    const std::size_t ci = sched.at(pi).cell_index;
                    const std::string payload =
                        wire::encode_deal(static_cast<std::int64_t>(ci),
                                          sched.attempts_of(pi));
                    if (!net::send_frame(h.fd, wire::MsgType::kDeal,
                                         payload)) {
                        host_dead(h, "rejected a deal (send failed)");
                        break;
                    }
                    sched.deal(pi, now, lease_ms, h.id);
                    h.leased.push_back(pi);
                    XS_DLOG("service: dealt cell " + cells[ci].id() + " to " +
                            h.name());
                }
            }
            purge_dead();
        }

        // Poll: the listener plus every host connection. Timeout is the
        // nearest lease/backoff event, our next beacon, or the progress
        // beat — capped so heartbeat-miss checks keep running.
        const double timeout = coord.ms_until_progress(std::clamp(
            std::min(sched.next_event_ms(now, 250.0), next_hb - now), 0.0,
            250.0));

        fds.clear();
        fd_host.clear();
        fds.push_back({listen_fd, POLLIN, 0});
        fd_host.push_back(nullptr);
        for (auto& hp : hosts) {
            fds.push_back({hp->fd, POLLIN, 0});
            fd_host.push_back(hp.get());
        }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(timeout)));

        if (fds[0].revents != 0) {
            for (;;) {
                const int cfd = net::accept_conn(listen_fd);
                if (cfd < 0) break;
                auto h = std::make_unique<Host>();
                h->id = next_host_id++;
                h->fd = cfd;
                h->reader.reset(cfd);
                h->last_heard = now_ms();
                util::log_info("service: " + h->name() + " connected");
                hosts.push_back(std::move(h));
            }
        }

        for (std::size_t fi = 1; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0) continue;
            Host& h = *fd_host[fi];
            h.last_heard = now_ms();
            h.reader.fill();
            wire::Message msg;
            while (h.fd >= 0 && h.reader.pop(msg)) {
                switch (msg.type) {
                    case wire::MsgType::kJoin: {
                        std::string fp;
                        std::int64_t capacity = 0;
                        if (!net::decode_join(msg.payload, fp, capacity)) {
                            net::send_frame(h.fd, wire::MsgType::kFail,
                                            "join rejected: malformed join");
                            host_dead(h, "sent a malformed join");
                            break;
                        }
                        if (fp != join_fp) {
                            util::log_error(
                                "service: " + h.name() +
                                " joined with a mismatched fingerprint "
                                "(service: " + join_fp + ", agent: " + fp +
                                "); rejecting — the agent is running a "
                                "different grid, spec, or experiment config");
                            net::send_frame(
                                h.fd, wire::MsgType::kFail,
                                "join rejected: fingerprint mismatch "
                                "(service: " + join_fp + ")");
                            host_dead(h, "fingerprint mismatch");
                            break;
                        }
                        h.joined = true;
                        h.capacity = capacity;
                        ++summary.hosts_joined;
                        if (!net::send_frame(
                                h.fd, wire::MsgType::kJoin,
                                net::encode_join_ok(svc.heartbeat_ms,
                                                    lease_ms)))
                            host_dead(h, "join reply failed");
                        else
                            util::log_info("service: " + h.name() +
                                           " joined with capacity " +
                                           std::to_string(capacity));
                        break;
                    }
                    case wire::MsgType::kHeartbeat:
                        break;  // last_heard already refreshed
                    case wire::MsgType::kAck: {
                        const std::string err = take_ack(h, msg.payload);
                        if (!err.empty()) host_dead(h, err);
                        break;
                    }
                    case wire::MsgType::kFail: {
                        std::int64_t ci = -1;
                        std::string reason;
                        if (!net::decode_fail(msg.payload, ci, reason)) {
                            host_dead(h, "sent an undecodable fail");
                            break;
                        }
                        if (ci < 0 ||
                            ci >= static_cast<std::int64_t>(cells.size()))
                            break;
                        const std::int64_t p = coord.position(
                            cells[static_cast<std::size_t>(ci)].id());
                        if (p < 0) break;
                        const std::size_t pi = static_cast<std::size_t>(p);
                        h.leased.erase(std::remove(h.leased.begin(),
                                                   h.leased.end(), pi),
                                       h.leased.end());
                        // Owner check: a fail from a host whose lease
                        // already expired (the cell moved on) is stale —
                        // its worker slot freed up, nothing else.
                        if (sched.at(pi).in_flight &&
                            sched.at(pi).owner == h.id)
                            coord.attempt_failed(sched, pi, reason);
                        break;
                    }
                    case wire::MsgType::kMetrics:
                        take_metrics(h, msg.payload);
                        break;
                    default:
                        host_dead(h, "sent unexpected message type " +
                                         std::to_string(static_cast<int>(
                                             msg.type)));
                }
            }
            if (h.fd >= 0 && h.reader.finished())
                host_dead(h, "disconnected");
        }
        purge_dead();

        // Lease expiry: take the cell back and re-deal elsewhere, but keep
        // the slow host's connection — its late ack, if it ever lands, is
        // deduped above. Determinism is untouched either way.
        for (const std::size_t p : sched.expired(now_ms()))
            coord.attempt_failed(
                sched, p,
                "lease expired on host" + std::to_string(sched.at(p).owner));

        // Beacons out, silence check in. Any frame refreshes last_heard, so
        // a busy host never needs explicit heartbeats to stay alive.
        const double tnow = now_ms();
        if (tnow >= next_hb) {
            next_hb = tnow + svc.heartbeat_ms;
            for (auto& hp : hosts)
                if (hp->fd >= 0 && hp->joined &&
                    !net::send_frame(hp->fd, wire::MsgType::kHeartbeat, ""))
                    host_dead(*hp, "heartbeat send failed");
        }
        for (auto& hp : hosts)
            if (hp->fd >= 0 &&
                tnow - hp->last_heard >
                    svc.heartbeat_ms *
                        static_cast<double>(svc.heartbeat_misses))
                host_dead(*hp,
                          "missed " + std::to_string(svc.heartbeat_misses) +
                              " heartbeats");
        purge_dead();

        coord.maybe_progress([&] {
            std::string line = "; hosts: " + std::to_string(hosts.size()) +
                               " connected, " +
                               std::to_string(summary.duplicate_acks) +
                               " dup acks";
            for (const auto& hp : hosts)
                if (hp->joined)
                    line += " — " + hp->name() + ": " +
                            std::to_string(hp->leased.size()) + " busy/" +
                            std::to_string(hp->cells_done) + " done";
            return line;
        });
    }

    // Orderly shutdown: every connected host gets kShutdown, drains its
    // local pool (its own 5 s grace), and answers with one kMetrics frame.
    // Our grace covers theirs; a host that dies instead contributes nothing.
    for (auto& hp : hosts)
        if (hp->fd >= 0 &&
            !net::send_frame(hp->fd, wire::MsgType::kShutdown, "")) {
            ::close(hp->fd);
            hp->fd = -1;
        }
    purge_dead();
    const double grace_deadline = now_ms() + 10000.0;
    while (!hosts.empty() && now_ms() < grace_deadline) {
        fds.clear();
        fd_host.clear();
        for (auto& hp : hosts) {
            fds.push_back({hp->fd, POLLIN, 0});
            fd_host.push_back(hp.get());
        }
        const double left = grace_deadline - now_ms();
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(std::max(left, 0.0))));
        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0) continue;
            Host& h = *fd_host[fi];
            h.reader.fill();
            wire::Message msg;
            while (h.reader.pop(msg)) {
                if (msg.type == wire::MsgType::kAck) {
                    // A delayed ack can land during the shutdown grace (the
                    // sweep finished off a re-deal while the slow host was
                    // still computing). Same path as the main loop — never
                    // ignored, or the dedup accounting would depend on
                    // timing; the host is leaving anyway.
                    take_ack(h, msg.payload);
                    continue;
                }
                if (msg.type == wire::MsgType::kMetrics) {
                    take_metrics(h, msg.payload);
                    ::close(h.fd);  // the metrics frame is the goodbye
                    h.fd = -1;
                    break;
                }
            }
            if (h.fd >= 0 && h.reader.finished()) {
                ::close(h.fd);
                h.fd = -1;
            }
        }
        purge_dead();
    }
    for (auto& hp : hosts)
        if (hp->fd >= 0) ::close(hp->fd);
    hosts.clear();
    ::close(listen_fd);

    return coord.finish(&host_metrics);
}

int run_agent(core::ExperimentContext& ctx, const SweepSpec& spec,
              const AgentOptions& opts) {
    util::set_log_prefix("[agent " + std::to_string(::getpid()) + "] ");
    tensor::check(!opts.worker_cmd.empty(),
                  "agent: worker_cmd is empty (use worker_command_from_argv)");
    tensor::check(opts.workers >= 1, "agent: need at least one worker");

    const std::vector<SweepCell> cells = spec.expand();
    const std::string join_fp =
        join_fingerprint(sweep_config_fingerprint(ctx, spec), cells);

    // Prepare every distinct model in the grid before forking workers: the
    // agent doesn't know which cells it will be dealt, and workers resolve
    // prepared specs from the on-disk model cache.
    for (const core::ModelSpec& ms : distinct_model_specs(ctx, cells))
        ctx.prepared(ms);

    WorkerPool pool(opts.worker_cmd, opts.max_worker_restarts);
    tensor::check(pool.spawn(static_cast<std::size_t>(opts.workers)),
                  "agent: failed to spawn worker process");

    std::deque<std::pair<std::int64_t, std::int64_t>> deals;  // cell, attempt
    std::deque<std::pair<wire::MsgType, std::string>> outbox;
    double heartbeat_ms = 1000.0, lease_ms = 0.0;
    int fd = -1;
    wire::MessageReader sock;
    std::int64_t failures = 0;  // consecutive connect/join failures
    double last_heard = 0.0, next_hb = 0.0;

    // Forward a frame to the service now, or park it in the outbox until
    // the next successful join — acks survive disconnects, and replaying
    // them is safe because the service dedups against recorded results.
    const auto disconnect = [&](const std::string& why) {
        if (fd < 0) return;
        util::log_warn("agent: connection lost (" + why + "); reconnecting");
        ::close(fd);
        fd = -1;
        failures = 1;
        deals.clear();  // undispatched deals re-deal service-side
    };
    const auto queue_send = [&](wire::MsgType type,
                                const std::string& payload) {
        if (fd >= 0 && net::send_frame(fd, type, payload)) return;
        outbox.emplace_back(type, payload);
        disconnect("send failed");
    };

    for (;;) {
        if (fd < 0) {
            // (Re)connect with capped exponential backoff, then the kJoin
            // handshake. A kFail reply is fatal — a fingerprint mismatch
            // cannot be fixed by retrying.
            if (opts.max_reconnects >= 0 && failures > opts.max_reconnects) {
                util::log_error("agent: giving up after " +
                                std::to_string(failures - 1) +
                                " reconnect attempt(s)");
                pool.shutdown(5000.0, nullptr);
                return 1;
            }
            if (failures > 0) {
                const double backoff = std::min(
                    opts.reconnect_backoff_ms *
                        std::pow(2.0, static_cast<double>(failures - 1)),
                    opts.reconnect_backoff_cap_ms);
                ::usleep(static_cast<useconds_t>(backoff * 1000.0));
            }
            std::string err;
            fd = net::connect_to(opts.host, opts.port, &err);
            if (fd < 0) {
                util::log_warn("agent: " + err);
                ++failures;
                continue;
            }
            sock.reset(fd);
            if (!net::send_frame(
                    fd, wire::MsgType::kJoin,
                    net::encode_join(join_fp,
                                     static_cast<std::int64_t>(pool.size())))) {
                disconnect("join send failed");
                continue;
            }
            // Wait for the join reply (bounded; a silent service means it
            // died between accept and reply — retry).
            bool ok = false, fatal = false;
            const double join_deadline = now_ms() + 10000.0;
            while (!ok && !fatal) {
                wire::Message msg;
                if (sock.pop(msg)) {
                    if (msg.type == wire::MsgType::kJoin &&
                        net::decode_join_ok(msg.payload, heartbeat_ms,
                                            lease_ms)) {
                        ok = true;
                    } else if (msg.type == wire::MsgType::kFail) {
                        util::log_error("agent: " + msg.payload);
                        fatal = true;
                    } else {
                        util::log_error("agent: unexpected join reply type " +
                                        std::to_string(
                                            static_cast<int>(msg.type)));
                        fatal = true;
                    }
                    continue;
                }
                const double left = join_deadline - now_ms();
                if (sock.finished() || left <= 0.0) break;
                pollfd pfd{fd, POLLIN, 0};
                ::poll(&pfd, 1, static_cast<int>(std::ceil(left)));
                sock.fill();
            }
            if (fatal) {
                ::close(fd);
                pool.shutdown(5000.0, nullptr);
                return 1;
            }
            if (!ok) {
                disconnect("no join reply");
                continue;
            }
            failures = 0;
            last_heard = now_ms();
            next_hb = last_heard + heartbeat_ms;
            util::log_info("agent: joined " + opts.host + ":" +
                           std::to_string(opts.port) + " (heartbeat " +
                           util::fmt(heartbeat_ms, 0) + " ms, lease " +
                           util::fmt(lease_ms, 0) + " ms)");
            while (!outbox.empty()) {
                if (fd < 0 ||
                    !net::send_frame(fd, outbox.front().first,
                                     outbox.front().second)) {
                    disconnect("outbox replay failed");
                    break;
                }
                outbox.pop_front();
            }
            continue;
        }

        // An agent with no live workers can't execute anything: exit so the
        // service's host-death path re-deals our leases immediately.
        if (pool.alive_count() == 0) {
            util::log_error(
                "agent: all workers dead (restart budget exhausted)");
            ::close(fd);
            return 1;
        }

        // Dispatch queued deals to idle ready workers. The local watchdog
        // mirrors the service lease: a hung worker is killed here and
        // failed back, instead of silently pinning a capacity slot until
        // the service re-deals around us.
        for (std::int64_t wi;
             !deals.empty() && (wi = pool.idle_worker()) >= 0;) {
            const auto [ci, attempt] = deals.front();
            if (pool.deal(static_cast<std::size_t>(wi), ci,
                          wire::encode_deal(ci, attempt), lease_ms))
                deals.pop_front();
        }

        const double now = now_ms();
        const double timeout =
            pool.next_deadline_ms(now, std::clamp(next_hb - now, 0.0, 250.0));
        std::vector<pollfd> fds{{fd, POLLIN, 0}};
        pool.add_poll_fds(fds);
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(timeout)));

        // Socket first: deals and shutdowns beat local bookkeeping.
        if (fds[0].revents != 0) {
            last_heard = now_ms();
            sock.fill();
            wire::Message msg;
            bool shutdown = false;
            while (fd >= 0 && sock.pop(msg)) {
                switch (msg.type) {
                    case wire::MsgType::kDeal: {
                        std::int64_t ci = -1, attempt = 0;
                        if (!wire::decode_deal(msg.payload, ci, attempt) ||
                            ci < 0 ||
                            ci >= static_cast<std::int64_t>(cells.size())) {
                            util::log_error("agent: malformed deal '" +
                                            msg.payload + "'");
                            break;
                        }
                        // Fault seam: kill/hang the whole host here, mid
                        // deal, on the configured attempt — the service's
                        // host-death recovery is exercised by a real dead
                        // process, not a mock.
                        util::fault::execute(
                            util::fault::at("agent-deal", ci, attempt),
                            "agent-deal", ci);
                        deals.emplace_back(ci, attempt);
                        break;
                    }
                    case wire::MsgType::kHeartbeat:
                        break;  // last_heard already refreshed
                    case wire::MsgType::kShutdown:
                        shutdown = true;
                        break;
                    default:
                        util::log_warn(
                            "agent: unexpected message type " +
                            std::to_string(static_cast<int>(msg.type)));
                }
                if (shutdown) break;
            }
            if (shutdown) {
#if XS_TELEMETRY_ENABLED
                util::metrics::Snapshot merged = util::metrics::snapshot();
                pool.shutdown(5000.0, &merged);
                net::send_frame(fd, wire::MsgType::kMetrics,
                                util::metrics::to_json(merged));
#else
                pool.shutdown(5000.0, nullptr);
#endif
                ::close(fd);
                util::log_info("agent: shut down by the service");
                return 0;
            }
            if (fd >= 0 && sock.finished()) disconnect("service closed");
        }

        // Silence check directly after the socket read, so a local stall (a
        // long cell, scheduler starvation, a fault-injected delay) can
        // never declare a healthy service dead while its frames sit unread
        // in our buffer — whatever arrived during the stall just refreshed
        // last_heard above.
        if (fd >= 0 && now_ms() - last_heard > heartbeat_ms * 3.0)
            disconnect("service silent for 3 heartbeats");

        for (const PoolEvent& ev : pool.pump()) {
            if (ev.kind == PoolEvent::Kind::kAck) {
                queue_send(wire::MsgType::kAck, ev.text);
                continue;
            }
            std::string reason = ev.text;
            if (ev.kind == PoolEvent::Kind::kDied) {
                util::log_warn("agent: worker " +
                               (ev.watchdog ? "watchdog-killed on cell " +
                                                  std::to_string(ev.token)
                                            : ev.text) +
                               (ev.respawned ? "; respawned" : "; retired"));
                reason = ev.watchdog ? "watchdog-killed after " +
                                           util::fmt(lease_ms, 0) + " ms"
                                     : "worker " + ev.text;
            }
            if (ev.token >= 0)
                queue_send(wire::MsgType::kFail,
                           net::encode_fail(ev.token, reason));
        }

        const double t = now_ms();
        if (fd >= 0 && t >= next_hb) {
            next_hb = t + heartbeat_ms;
            if (!net::send_frame(fd, wire::MsgType::kHeartbeat, ""))
                disconnect("heartbeat send failed");
        }
    }
}

}  // namespace xs::sweep
