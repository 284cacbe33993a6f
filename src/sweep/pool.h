// Forked sweep-worker pool shared by the single-host supervisor
// (sweep/supervisor.h) and the multi-host agent (sweep/service.h run_agent)
// — DESIGN.md §9/§11.
//
// Each slot holds one `<binary> --worker --wire-in=<fd> --wire-out=<fd>`
// child process wired to fresh deal/ack pipes: fork+exec (fork alone is
// unsafe under the process thread pool), parent-held pipe ends CLOEXEC so
// later-spawned siblings don't mask each other's EOF-on-death, ack side
// nonblocking and poll-driven through a wire::MessageReader. Respawns are
// budgeted pool-wide: past the budget a dead slot retires and the pool
// shrinks gracefully instead of flapping on a persistent fault.
//
// The pool also drives its workers, so both of its users only react to
// events: deal() hands a work token to an idle ready worker, and pump()
// drains kHello/kAck/kFail frames, reaps and respawns dead workers, and
// SIGKILLs workers past their watchdog deadline, reporting each ack, fail
// and death as a PoolEvent. The caller keeps its own poll loop (the agent
// polls its service socket in the same call) and decides what a token is.
#pragma once

#include "sweep/wire.h"
#include "util/metrics.h"

#include <cstdint>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

namespace xs::sweep {

struct PoolWorker {
    pid_t pid = -1;
    int deal_fd = -1;  // parent → worker (blocking writes)
    int ack_fd = -1;   // worker → parent (nonblocking, poll-driven)
    wire::MessageReader reader;
    bool alive = false;
    bool ready = false;       // said hello / finished its last cell
    std::int64_t dealt = -1;  // opaque work token in flight here, -1 = idle
    double deadline = 0.0;    // watchdog deadline (now_ms clock); 0 = none
};

// Something WorkerPool::pump() saw that the caller must react to.
struct PoolEvent {
    enum class Kind { kAck, kFail, kDied };
    Kind kind = Kind::kDied;
    std::size_t worker = 0;
    std::int64_t token = -1;  // work the worker held; -1 = none
    // kAck: the cell's manifest line; kFail: the error text; kDied: how the
    // process exited.
    std::string text;
    bool respawned = false;  // kDied: the slot refilled (false = retired)
    bool watchdog = false;   // kDied: killed for holding `token` too long
};

class WorkerPool {
public:
    // `cmd` is the worker argv prefix (binary + every experiment/spec
    // flag); the pool appends --worker --wire-in/--wire-out per spawn.
    WorkerPool(std::vector<std::string> cmd, std::int64_t restart_budget);
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    // Fill the pool with n workers. Returns false on the first spawn
    // failure (earlier spawns stay alive).
    bool spawn(std::size_t n);

    std::size_t size() const { return workers_.size(); }
    const PoolWorker& operator[](std::size_t i) const { return workers_[i]; }
    std::size_t alive_count() const;
    std::size_t busy_count() const;

    // A live worker that said hello and holds no work; -1 when none.
    std::int64_t idle_worker() const;
    // Send `token` to idle worker i as a kDeal frame with `payload`, arming
    // its watchdog `lease_ms` from now (0 = none). Returns false when the
    // worker cannot take the frame (broken pipe): it is killed, reaped and
    // respawned, a kDied event is queued for pump(), and the work stays
    // with the caller.
    bool deal(std::size_t i, std::int64_t token, const std::string& payload,
              double lease_ms);
    // Append a POLLIN entry for every live worker's ack pipe.
    void add_poll_fds(std::vector<pollfd>& fds) const;
    // Milliseconds until the nearest watchdog deadline, clamped to [0, cap].
    double next_deadline_ms(double now, double cap) const;
    // Drain every live worker's frames (kHello marks it ready, kAck and
    // kFail free it), reap and respawn workers at EOF, then SIGKILL and
    // reap workers past their deadline — in that order, so an ack already
    // in the pipe always beats the axe.
    std::vector<PoolEvent> pump();

    std::int64_t restarts() const { return restarts_; }
    std::int64_t restarts_left() const { return restarts_left_; }

    // Orderly shutdown: send kShutdown to every live worker, collect each
    // one's parting kMetrics frame into `merged` (when telemetry is
    // compiled in; pass nullptr to skip), then reap — escalating to SIGKILL
    // past `grace_ms`. Leaves the pool empty of live workers.
    void shutdown(double grace_ms, util::metrics::Snapshot* merged);

private:
    bool spawn_slot(PoolWorker& w);
    // SIGKILL (when `sigkill`) and reap worker i, close its pipes, and respawn
    // into the slot while the restart budget lasts.
    PoolEvent reap(std::size_t i, bool sigkill);

    std::vector<std::string> cmd_;
    std::vector<PoolWorker> workers_;
    std::int64_t restarts_left_;
    std::int64_t restarts_ = 0;
    std::vector<PoolEvent> queued_;  // deaths seen by deal()
};

}  // namespace xs::sweep
