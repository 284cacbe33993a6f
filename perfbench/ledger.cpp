#include "ledger.h"

#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int SpanLog::open(const std::string& name) {
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void SpanLog::close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    // Spans close in LIFO order (ScopedSpan); pop through `id` regardless.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == id) break;
    }
}

std::vector<double> SpanLog::durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (s.name == name && s.end_ns >= s.start_ns) out.push_back(s.seconds());
    return out;
}

std::string SpanLog::to_json() const {
    std::ostringstream os;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"parent\":" << s.parent << "}";
    }
    os << "\n]}\n";
    return os.str();
}

bool read_chrome_trace(const std::string& path, std::vector<TraceEvent>& out) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
        // util::trace writes one event per line; other lines are the
        // document's brackets.
        if (line.rfind("{\"name\":\"", 0) != 0) continue;
        char name[128];
        TraceEvent e;
        if (std::sscanf(line.c_str(),
                        "{\"name\":\"%127[^\"]\",\"ph\":\"X\",\"ts\":%lf,"
                        "\"dur\":%lf,\"pid\":%d,\"tid\":%d}",
                        name, &e.ts_us, &e.dur_us, &e.pid, &e.tid) != 5)
            return false;
        e.name = name;
        out.push_back(std::move(e));
    }
    return true;
}

std::map<std::string, double> self_seconds_by_name(std::vector<TraceEvent> events) {
    // Per thread, in start order with enclosing spans first; a stack of open
    // spans gives each span its direct parent.
    std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
        if (a.pid != b.pid) return a.pid < b.pid;
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
        return a.dur_us > b.dur_us;
    });
    std::vector<double> self(events.size());
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        self[i] = e.dur_us;
        if (i > 0 && (e.pid != events[i - 1].pid || e.tid != events[i - 1].tid))
            open.clear();
        // Timestamps are printed to 1 ns, so a child may appear to end a
        // hair after its parent; allow that much.
        while (!open.empty()) {
            const TraceEvent& p = events[open.back()];
            if (e.ts_us + e.dur_us <= p.ts_us + p.dur_us + 0.002) break;
            open.pop_back();
        }
        if (!open.empty()) self[open.back()] -= e.dur_us;
        open.push_back(i);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < events.size(); ++i)
        out[events[i].name] += std::max(0.0, self[i]) * 1e-6;
    return out;
}

std::string layer_of_span(const std::string& name) {
    static const std::map<std::string, std::string> kLayer = {
        {"cell", "sweep"},          {"cell_group", "sweep"},
        {"cell.prepare", "sweep"},  {"cell.eval", "sweep"},
        {"aggregate", "sweep"},     {"compile_instances", "core"},
        {"infer_repeat", "core"},   {"degrade_repeat", "core"},
        {"measure_nf", "core"},     {"forward", "nn"},
        {"forward_batched", "nn"},  {"conv", "nn"},
        {"linear", "nn"},           {"quantize", "xbar"},
        {"variation", "xbar"},      {"faults", "xbar"},
        {"parasitics", "xbar"},     {"compensate", "xbar"},
        {"fast.calibrate", "xbar"},
    };
    const auto it = kLayer.find(name);
    return it == kLayer.end() ? std::string() : it->second;
}

std::uint64_t counter(const xs::util::metrics::Snapshot& snap, const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

double hist_seconds(const xs::util::metrics::Snapshot& snap, const std::string& name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : static_cast<double>(it->second.sum) * 1e-9;
}

double gemm_flops_per_image(const xs::nn::Sequential& model, std::int64_t image_size) {
    using namespace xs::nn;
    std::int64_t h = image_size, w = image_size;
    double flops = 0.0;
    for (std::size_t i = 0; i < model.size(); ++i) {
        const Layer& layer = model.layer(i);
        if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
            const std::int64_t k = conv->kernel();
            h = (h + 2 * conv->pad() - k) / conv->stride() + 1;
            w = (w + 2 * conv->pad() - k) / conv->stride() + 1;
            flops += 2.0 * static_cast<double>(conv->out_channels()) *
                     static_cast<double>(conv->in_channels() * k * k) *
                     static_cast<double>(h * w);
        } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(&layer)) {
            h /= pool->kernel();
            w /= pool->kernel();
        } else if (const auto* avg = dynamic_cast<const AvgPool2d*>(&layer)) {
            h /= avg->kernel();
            w /= avg->kernel();
        } else if (const auto* fc = dynamic_cast<const Linear*>(&layer)) {
            flops += 2.0 * static_cast<double>(fc->out_features()) *
                     static_cast<double>(fc->in_features());
        }
    }
    return flops;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
