// Lease-based cell scheduling shared by the single-host supervisor
// (sweep/supervisor.h) and the multi-host service (sweep/service.h) —
// DESIGN.md §9/§11.
//
// Both executors solve the same problem: a set of undone cells must each
// be dealt to exactly one executor at a time, re-dealt with exponential
// backoff when the attempt fails (executor death, hang, thrown error, lease
// expiry), and quarantined after the retry budget. The only difference is
// what an "executor" is (a forked worker process vs a remote agent host),
// so that stays an opaque owner token here; each transport loop maps it
// back to its own structures and hands failed attempts to the one
// SweepCoordinator::attempt_failed (sweep/coordinator.h), which logs the
// retry or records the quarantine.
//
// A *lease* is a deal with a deadline: the coordinator derives it from the
// per-cell wall-time budget, and a cell still in flight past its deadline
// is taken back and re-dealt. The supervisor enforces expiry with SIGKILL
// (the worker is local); the service just re-deals and lets the slow host's
// eventual duplicate ack be deduped against the recorded results — the
// durable manifest append is the only ack that counts, so determinism is
// untouched either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xs::sweep {

// Steady-clock milliseconds: the clock every lease time, backoff gate and
// watchdog deadline in the sweep executors is measured in.
double now_ms();

class LeaseScheduler {
public:
    struct Entry {
        std::size_t cell_index = 0;  // into the expanded grid
        std::int64_t attempts = 0;   // deals so far (also indexes the backoff)
        double eligible_at = 0.0;    // steady-clock ms; backoff gate
        double deadline = 0.0;       // lease expiry; 0 = no lease
        std::int64_t owner = -1;     // executor token while in flight
        bool in_flight = false;
        bool done = false;  // acknowledged ok or quarantined
    };

    // One entry per grid index in `cells`, in order (executors pass
    // SweepCoordinator::pending(), so an entry's position is its position
    // there). `max_retries` re-deals after the first attempt (total
    // attempts = max_retries + 1); first re-deal backs off `backoff_ms`,
    // doubling per attempt.
    LeaseScheduler(const std::vector<std::size_t>& cells,
                   std::int64_t max_retries, double backoff_ms);

    std::size_t size() const { return cells_.size(); }
    bool all_done() const { return done_count_ == cells_.size(); }
    std::size_t done_count() const { return done_count_; }
    std::size_t in_flight_count() const;
    const Entry& at(std::size_t p) const { return cells_[p]; }

    // Lowest-index cell that is neither done nor in flight and whose
    // backoff has expired; -1 when nothing is eligible right now.
    std::int64_t next_eligible(double now) const;

    // Lease cell p to `owner` once the deal reached it: consumes an
    // attempt, arms the deadline (now + lease_ms; 0 disables).
    void deal(std::size_t p, double now, double lease_ms, std::int64_t owner);

    // Cell p completed (its manifest append is durable).
    void ack(std::size_t p);

    enum class FailOutcome {
        kRetry,       // backoff armed; the cell becomes eligible later
        kQuarantine,  // retry budget exhausted; caller records the failure
    };
    // The in-flight attempt on p failed (executor died, threw, or the lease
    // expired). On kQuarantine the cell is marked done — the caller must
    // append the failure-taxonomy manifest record.
    FailOutcome fail(std::size_t p, double now);

    // In-flight cells whose lease deadline has passed.
    std::vector<std::size_t> expired(double now) const;

    // Milliseconds until the next scheduling event (a backoff expiry or a
    // lease deadline), clamped to [0, cap]; cap when nothing is pending.
    double next_event_ms(double now, double cap) const;

    std::int64_t attempts_of(std::size_t p) const {
        return cells_[p].attempts;
    }

private:
    std::vector<Entry> cells_;
    std::int64_t max_retries_;
    double backoff_ms_;
    std::size_t done_count_ = 0;
};

}  // namespace xs::sweep
