// Measurement plumbing for the end-to-end sweep benchmark: the driver's own
// span log, chrome-trace parsing with per-layer self time, telemetry
// snapshot accessors, and the computed GEMM FLOP count.
#pragma once

#include "nn/sequential.h"
#include "util/metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds (the clock util::trace uses).
std::uint64_t now_ns();

// Spans the driver records around each public call it makes. Kept in
// memory, written out once when the run ends.
class SpanLog {
public:
    struct Span {
        std::string name;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        int parent = -1;  // index into spans(), -1 for a root
        double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
    };

    int open(const std::string& name);
    void close(int id);
    const std::vector<Span>& spans() const { return spans_; }
    // Durations (seconds) of every closed span called `name`.
    std::vector<double> durations(const std::string& name) const;
    // {"spans":[{"name":..,"start_ns":..,"end_ns":..,"parent":..},...]}
    std::string to_json() const;

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, const std::string& name) : log_(log), id_(log.open(name)) {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    int id_;
};

// One complete ("ph":"X") event of a util::trace chrome trace file.
struct TraceEvent {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    int pid = 0;
    int tid = 0;
};

// Append the events of a util::trace output file to `out`. Returns false if
// the file cannot be read or holds a line it cannot parse.
bool read_chrome_trace(const std::string& path, std::vector<TraceEvent>& out);

// Self time in seconds summed per span name: each span's duration minus the
// durations of the spans nested directly inside it on the same thread.
std::map<std::string, double> self_seconds_by_name(std::vector<TraceEvent> events);

// The module (layer) a program span belongs to: "sweep", "core", "nn",
// "xbar", or "" for a name this benchmark does not know.
std::string layer_of_span(const std::string& name);

// Telemetry snapshot accessors: a missing metric reads as zero.
std::uint64_t counter(const xs::util::metrics::Snapshot& snap, const std::string& name);
double hist_seconds(const xs::util::metrics::Snapshot& snap, const std::string& name);

// Dense-equivalent GEMM FLOPs (2 per multiply-add) of one forward pass of one
// image through `model`'s Conv2d and Linear layers, from the layer shapes:
// a conv contributes 2 · Cout · (Cin · k · k) · OH · OW, a linear layer
// 2 · out · in. Pruned zeros are counted, so this is work offered, not work
// executed by the sparse path.
double gemm_flops_per_image(const xs::nn::Sequential& model, std::int64_t image_size);

// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> v);

}  // namespace perfbench
