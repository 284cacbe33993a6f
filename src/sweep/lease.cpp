#include "sweep/lease.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace xs::sweep {

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

LeaseScheduler::LeaseScheduler(const std::vector<std::size_t>& cells,
                               std::int64_t max_retries, double backoff_ms)
    : cells_(cells.size()), max_retries_(max_retries), backoff_ms_(backoff_ms) {
    for (std::size_t p = 0; p < cells.size(); ++p)
        cells_[p].cell_index = cells[p];
}

std::size_t LeaseScheduler::in_flight_count() const {
    std::size_t n = 0;
    for (const Entry& e : cells_)
        if (e.in_flight) ++n;
    return n;
}

std::int64_t LeaseScheduler::next_eligible(double now) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Entry& e = cells_[i];
        if (!e.done && !e.in_flight && e.eligible_at <= now)
            return static_cast<std::int64_t>(i);
    }
    return -1;
}

void LeaseScheduler::deal(std::size_t p, double now, double lease_ms,
                          std::int64_t owner) {
    Entry& e = cells_[p];
    ++e.attempts;
    e.in_flight = true;
    e.owner = owner;
    e.deadline = lease_ms > 0.0 ? now + lease_ms : 0.0;
}

void LeaseScheduler::ack(std::size_t p) {
    Entry& e = cells_[p];
    e.in_flight = false;
    e.owner = -1;
    e.deadline = 0.0;
    if (!e.done) {
        e.done = true;
        ++done_count_;
    }
}

LeaseScheduler::FailOutcome LeaseScheduler::fail(std::size_t p, double now) {
    Entry& e = cells_[p];
    e.in_flight = false;
    e.owner = -1;
    e.deadline = 0.0;
    if (e.attempts > max_retries_) {
        e.done = true;
        ++done_count_;
        return FailOutcome::kQuarantine;
    }
    e.eligible_at =
        now + backoff_ms_ * std::pow(2.0, static_cast<double>(e.attempts - 1));
    return FailOutcome::kRetry;
}

std::vector<std::size_t> LeaseScheduler::expired(double now) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Entry& e = cells_[i];
        if (e.in_flight && e.deadline > 0.0 && now >= e.deadline)
            out.push_back(i);
    }
    return out;
}

double LeaseScheduler::next_event_ms(double now, double cap) const {
    double timeout = cap;
    for (const Entry& e : cells_) {
        if (e.done) continue;
        if (e.in_flight && e.deadline > 0.0)
            timeout = std::min(timeout, e.deadline - now);
        else if (!e.in_flight && e.eligible_at > now)
            timeout = std::min(timeout, e.eligible_at - now);
    }
    return std::max(timeout, 0.0);
}

}  // namespace xs::sweep
