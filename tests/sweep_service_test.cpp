// Multi-host sweep service coverage (sweep/service.h) over loopback TCP:
// the coordinator runs in-process on a pre-bound ephemeral port while agent
// hosts are real forked copies of this binary (--agent=127.0.0.1:<port>),
// each running its own forked worker pool — three process layers deep,
// exactly the production topology of examples/sweep_serve.cpp.
//
// The invariant under test is the paper-repro one: the aggregate CSV is
// byte-identical to an uninterrupted single-process run at any host count,
// through host kills mid-cell, torn socket frames, agent disconnects with
// reconnect+replay, expired leases with late duplicate acks, and
// coordinator restarts (--resume). Faults are injected into the *agent*
// processes via their environment (XS_FAULT), never into the coordinator.
//
// This binary is its own worker AND its own agent: it provides main()
// (CMake links it without gtest_main) and re-execs itself, exactly like the
// sweep_runner driver does in production.
#include "core/experiments.h"
#include "sweep/manifest.h"
#include "sweep/net.h"
#include "sweep/runner.h"
#include "sweep/service.h"
#include "sweep/supervisor.h"
#include "util/flags.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace xs::sweep {
namespace {

std::string test_dir() {
    const auto dir =
        std::filesystem::temp_directory_path() / "xs_sweep_service";
    std::filesystem::create_directories(dir);
    return dir.string();
}

// One flag list drives everything: the test-side context/spec AND the agent
// command lines, so the coordinator and every agent (and every agent's
// workers) parse identical configurations — and identical fingerprints —
// by construction.
std::vector<std::string> base_args() {
    return {"--width=0.0625",
            "--train-count=96",
            "--test-count=48",
            "--epochs=1",
            "--batch=16",
            "--sizes=16",
            "--prune=none,cf:0.8",
            "--sweep-repeats=2",
            "--out-dir=" + test_dir(),
            "--cache-dir=" + test_dir() + "/models"};
}

util::Flags tiny_flags() {
    static std::vector<std::string> args = base_args();
    std::vector<char*> argv;
    static const char* name = "sweep_service_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

core::ExperimentContext& ctx() {
    static const bool cleaned = [] {
        std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                    "xs_sweep_service");
        return true;
    }();
    (void)cleaned;
    static util::Flags flags = tiny_flags();
    static core::ExperimentContext context(flags);
    return context;
}

SweepSpec tiny_spec() { return parse_sweep_spec(tiny_flags()); }

// A 12-cell variant (same models, more repeats) for the reconnect tests:
// the tiny 4-cell sweep finishes in a few hundred ms once workers are warm,
// which is faster than a severed agent can rejoin — the fault would "pass"
// by the sweep ending before the reconnect it is supposed to exercise.
std::vector<std::string> many_args() {
    auto args = base_args();
    for (std::string& a : args)
        if (a == "--sweep-repeats=2") a = "--sweep-repeats=6";
    return args;
}

SweepSpec many_spec() {
    static std::vector<std::string> args = many_args();
    std::vector<char*> argv;
    static const char* name = "sweep_service_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return parse_sweep_spec(
        util::Flags(static_cast<int>(argv.size()), argv.data()));
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// Uninterrupted single-process reference run (once per process): the bytes
// every service topology must reproduce — and the warm model cache every
// agent child resolves its prepared models from.
const std::string& baseline_csv() {
    static const std::string csv = [] {
        SweepOptions opts;
        opts.csv_name = "baseline.csv";
        opts.manifest_name = "baseline.jsonl";
        SweepRunner runner(ctx(), tiny_spec(), opts);
        const SweepSummary summary = runner.run();
        EXPECT_EQ(summary.cells_executed, 4);
        return slurp(summary.csv_path);
    }();
    EXPECT_FALSE(csv.empty());
    return csv;
}

// Single-process reference bytes for the 12-cell grid (reconnect tests).
const std::string& baseline_many_csv() {
    static const std::string csv = [] {
        SweepOptions opts;
        opts.csv_name = "baseline_many.csv";
        opts.manifest_name = "baseline_many.jsonl";
        SweepRunner runner(ctx(), many_spec(), opts);
        const SweepSummary summary = runner.run();
        EXPECT_EQ(summary.cells_executed, 12);
        return slurp(summary.csv_path);
    }();
    EXPECT_FALSE(csv.empty());
    return csv;
}

// Complete manifest lines recording a finished (not quarantined) cell.
int count_ok_records(const std::string& manifest) {
    int n = 0;
    std::size_t start = 0;
    for (auto end = manifest.find('\n'); end != std::string::npos;
         start = end + 1, end = manifest.find('\n', start)) {
        const std::string line = manifest.substr(start, end - start);
        if (line.find("\"cell\":\"") != std::string::npos &&
            line.find("\"status\"") == std::string::npos)
            ++n;
    }
    return n;
}

int count_occurrences(const std::string& hay, const std::string& needle) {
    int n = 0;
    for (auto pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

// Fork+exec this binary as an agent host joining 127.0.0.1:<port>. The
// fault plan travels in the child's environment only — the coordinator
// (this process) never sees it. argv/envp are fully built before fork:
// the test process is threaded, so the child runs only async-signal-safe
// calls between fork and exec.
pid_t spawn_agent(int port, std::int64_t workers,
                  const std::string& fault = "",
                  const std::string& delay_ms = "",
                  const std::vector<std::string>* base_override = nullptr,
                  const std::string& backoff_ms = "50") {
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    EXPECT_GT(n, 0);
    exe[n] = '\0';

    std::vector<std::string> args;
    args.push_back(exe);
    for (const std::string& a : base_override ? *base_override : base_args())
        args.push_back(a);
    args.push_back("--agent=127.0.0.1:" + std::to_string(port));
    args.push_back("--workers=" + std::to_string(workers));
    args.push_back("--agent-backoff-ms=" + backoff_ms);  // fast test rejoins
    args.push_back("--agent-reconnects=6");    // bounded: a dead service
                                               // must not leak a child

    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
        if (std::string(*e).rfind("XS_FAULT", 0) != 0) env.push_back(*e);
    if (!fault.empty()) env.push_back("XS_FAULT=" + fault);
    if (!delay_ms.empty())
        env.push_back("XS_FAULT_NET_DELAY_MS=" + delay_ms);

    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    return pid;
}

// Owns an agent child: tests that pass collect the exit status; tests that
// throw out of run_service still reap (SIGKILL) instead of leaking it.
struct AgentProc {
    pid_t pid = -1;
    explicit AgentProc(pid_t p) : pid(p) {}
    AgentProc(AgentProc&& o) noexcept : pid(o.pid) { o.pid = -1; }
    AgentProc(const AgentProc&) = delete;
    ~AgentProc() {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    int wait() {
        int st = 0;
        ::waitpid(pid, &st, 0);
        pid = -1;
        return st;
    }
};

bool exited_ok(int status) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Service options on a fresh ephemeral port (run_service owns and closes
// the fd), tuned for test latency: fast beacons, fast re-deals, and a
// silence tolerance generous enough that scheduling jitter never declares
// a healthy loopback host dead.
ServiceOptions fast_svc(int& port) {
    ServiceOptions svc;
    std::string err;
    svc.listen_fd = net::listen_on(0, &err);
    EXPECT_GE(svc.listen_fd, 0) << err;
    port = net::bound_port(svc.listen_fd);
    EXPECT_GT(port, 0);
    svc.heartbeat_ms = 250.0;
    svc.heartbeat_misses = 8;  // 2 s of silence = dead
    svc.retry_backoff_ms = 20.0;
    return svc;
}

TEST(SweepService, SingleHostMatchesSingleProcessByteForByte) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    AgentProc agent(spawn_agent(port, 2));

    SweepOptions opts;
    opts.csv_name = "svc_one.csv";
    opts.manifest_name = "svc_one.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.hosts_joined, 1);
    EXPECT_EQ(summary.duplicate_acks, 0);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));  // shut down by the service
}

TEST(SweepService, ThreeHostsMatchSingleProcessByteForByte) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    std::vector<AgentProc> agents;
    for (int i = 0; i < 3; ++i)
        agents.emplace_back(spawn_agent(port, 1));

    SweepOptions opts;
    opts.csv_name = "svc_three.csv";
    opts.manifest_name = "svc_three.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.hosts_joined, 3);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    for (auto& a : agents) EXPECT_TRUE(exited_ok(a.wait()));
}

TEST(SweepService, HostKilledMidCellHasItsLeaseReDealt) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // Both agents carry the same plan, but cell 1's first deal lands on
    // exactly one of them — that whole host (workers and all) dies mid-cell
    // (SIGKILL, no goodbye), and the survivor, which never sees cell 1 at
    // attempt 0 again, finishes the sweep.
    std::vector<AgentProc> agents;
    agents.emplace_back(spawn_agent(port, 1, "crash@agent-deal:1"));
    agents.emplace_back(spawn_agent(port, 1, "crash@agent-deal:1"));

    SweepOptions opts;
    opts.csv_name = "svc_kill.csv";
    opts.manifest_name = "svc_kill.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.cell_retries, 1);  // the orphaned lease re-dealt
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());

    const int st0 = agents[0].wait();
    const int st1 = agents[1].wait();
    EXPECT_TRUE(WIFSIGNALED(st0) != WIFSIGNALED(st1))
        << "exactly one host should have died";
    EXPECT_TRUE(exited_ok(WIFSIGNALED(st0) ? st1 : st0));
}

// The two reconnect tests run the 12-cell grid (so the sweep outlives the
// rejoin), sever the faulted host's *second ack* via the net-send-ack site
// (machine load decides whether a raw frame ordinal is an ack or an idle
// heartbeat — the ack ordinal is deterministic), and reconnect on a 10 ms
// backoff so the rejoin lands while the sweep still has cells to deal.
//
// The service runs on a thread and the healthy agent joins only once the
// manifest holds two results. The faulted host is alone until then, so its
// second result can only have landed by replay after its rejoin: it has
// joined twice, and the healthy host can no longer finish the grid before
// the fault fires (with both agents started together, a late-booting
// faulted worker left hosts_joined at 2 in about one run in ten).
SweepSummary run_reconnect_sweep(const std::string& fault,
                                 const std::string& tag,
                                 std::vector<AgentProc>& agents) {
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    const std::vector<std::string> grid = many_args();
    agents.emplace_back(spawn_agent(port, 1, fault, "", &grid, "10"));

    SweepOptions opts;
    opts.csv_name = tag + ".csv";
    opts.manifest_name = tag + ".jsonl";
    const std::string manifest = ctx().csv_path(opts.manifest_name);
    std::filesystem::remove(manifest);
    std::future<SweepSummary> service = std::async(std::launch::async, [&] {
        return run_service(ctx(), many_spec(), opts, svc);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (count_ok_records(slurp(manifest)) < 2 &&
           service.wait_for(std::chrono::milliseconds(5)) !=
               std::future_status::ready &&
           std::chrono::steady_clock::now() < deadline) {
    }
    agents.emplace_back(spawn_agent(port, 1, "", "", &grid));
    return service.get();
}

TEST(SweepService, TornFrameDropsTheHostAndTheSweepRecovers) {
    baseline_many_csv();
    // One agent's second ack is torn in half and its connection severed.
    // The service must read the torn prefix as a dead host, never as a
    // frame; the agent parks the ack in its outbox, reconnects with a
    // fresh join, and replays it.
    std::vector<AgentProc> agents;
    const SweepSummary summary = run_reconnect_sweep(
        "net-partial-write@net-send-ack:1", "svc_torn", agents);
    EXPECT_EQ(summary.cells_executed, 12);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.hosts_joined, 3);  // 2 hosts + at least one rejoin
    EXPECT_EQ(slurp(summary.csv_path), baseline_many_csv());
    for (auto& a : agents) EXPECT_TRUE(exited_ok(a.wait()));
}

TEST(SweepService, DisconnectedAgentReconnectsAndReplaysItsOutbox) {
    baseline_many_csv();
    // One agent's connection severs as it sends its second ack, without a
    // byte written (a network blip): the ack is parked in its outbox and
    // replayed after the reconnect handshake. The service either records
    // it (cell still unrecorded) or dedups it — both keep the CSV bytes.
    std::vector<AgentProc> agents;
    const SweepSummary summary = run_reconnect_sweep(
        "net-disconnect@net-send-ack:1", "svc_blip", agents);
    EXPECT_EQ(summary.cells_executed, 12);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.hosts_joined, 3);  // 2 hosts + at least one rejoin
    EXPECT_EQ(slurp(summary.csv_path), baseline_many_csv());
    for (auto& a : agents) EXPECT_TRUE(exited_ok(a.wait()));
}

TEST(SweepService, LateDuplicateAckIsDedupedNeverDoubleRecorded) {
    baseline_csv();
    int port = 0;
    ServiceOptions svc = fast_svc(port);
    svc.heartbeat_ms = 1000.0;
    svc.heartbeat_misses = 10;  // 10 s of tolerance — the stalled host must
                                // NOT be declared dead (slow-but-alive)
    svc.max_cell_retries = 4;   // lease expiries must never reach quarantine
    // One agent stalls 5 s inside sending its first ack. The stall is
    // longer than the 1.5 s lease, and the lease clock started at the deal,
    // before the worker even finished — so the service re-deals the cell to
    // the other host whatever the timing. Whichever copy lands second (the
    // stalled ack typically arrives during the shutdown grace) must be
    // counted and dropped, never appended twice.
    std::vector<AgentProc> agents;
    agents.emplace_back(
        spawn_agent(port, 1, "net-delay@net-send-ack:0", "5000"));
    agents.emplace_back(spawn_agent(port, 1));

    SweepOptions opts;
    opts.csv_name = "svc_dup.csv";
    opts.manifest_name = "svc_dup.jsonl";
    opts.cell_budget_ms = 1500.0;  // the lease
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.cell_retries, 1);     // a lease expired and re-dealt
    EXPECT_GE(summary.duplicate_acks, 1);   // the late copy was deduped
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());

    // The dedup claim, verified against the bytes on disk: every cell has
    // exactly one manifest record — the first durable append won.
    const std::string manifest_raw = slurp(summary.manifest_path);
    for (const SweepCell& cell : tiny_spec().expand())
        EXPECT_EQ(count_occurrences(manifest_raw,
                                    "\"cell\":\"" + cell.id() + "\""),
                  1)
            << cell.id();
    for (auto& a : agents) EXPECT_TRUE(exited_ok(a.wait()));
}

TEST(SweepService, CoordinatorResumeIsByteIdenticalAndCarriesMetrics) {
    baseline_csv();
    util::metrics::reset();  // a clean slate makes the totals checkable

    // Run 1: the coordinator stops after 2 cells (max_cells stands in for
    // a coordinator crash — the manifest is the only state that survives
    // either way) and shuts its agent down.
    SweepOptions opts;
    opts.csv_name = "svc_resume.csv";
    opts.manifest_name = "svc_resume.jsonl";
    opts.max_cells = 2;
    {
        int port = 0;
        const ServiceOptions svc = fast_svc(port);
        AgentProc agent(spawn_agent(port, 2));
        const SweepSummary partial =
            run_service(ctx(), tiny_spec(), opts, svc);
        EXPECT_EQ(partial.cells_executed, 2);
        EXPECT_EQ(partial.cells_pending, 2);
        EXPECT_TRUE(exited_ok(agent.wait()));
    }

    // Run 2: a fresh coordinator and a fresh agent resume from the
    // manifest. In production the restarted coordinator is a new process
    // with zeroed counters; reset() gives this in-process rerun the same
    // starting point so the carried-forward totals are exact.
    util::metrics::reset();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    AgentProc agent(spawn_agent(port, 2));
    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(resumed.cells_resumed, 2);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_EQ(resumed.cells_pending, 0);
    EXPECT_EQ(slurp(resumed.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));

#if XS_TELEMETRY_ENABLED
    // Satellite: the final metrics record carries the totals across the
    // restart — run 1's counts folded into run 2's, coordinator-side
    // (cells.done) and host-side (cells.executed from the agents' worker
    // pools) alike.
    ASSERT_FALSE(resumed.metrics_json.empty());
    util::metrics::Snapshot snap;
    ASSERT_TRUE(util::metrics::from_json(resumed.metrics_json, snap));
    EXPECT_EQ(snap.counters.at("sweep.cells.done"), 4u);
    EXPECT_EQ(snap.counters.at("sweep.cells.executed"), 4u);
#endif
}

TEST(SweepService, MismatchedFingerprintJoinIsRejectedLoudly) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // The imposter runs a different grid (--sweep-repeats=4) under the SAME
    // experiment config — the config fingerprint alone cannot tell them
    // apart (grid axes are spec-only), so this is exactly the join the
    // grid-hash component exists to reject: fatally, since reconnecting
    // cannot fix a wrong grid, and before any of its foreign cell ids can
    // blend into this sweep's manifest.
    std::vector<std::string> wrong = base_args();
    for (std::string& a : wrong)
        if (a == "--sweep-repeats=2") a = "--sweep-repeats=4";
    AgentProc imposter(spawn_agent(port, 1, "", "", &wrong));
    AgentProc agent(spawn_agent(port, 2));

    SweepOptions opts;
    opts.csv_name = "svc_fp.csv";
    opts.manifest_name = "svc_fp.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.hosts_joined, 1);  // the imposter never joined
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
    const int st = imposter.wait();
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) != 0);
}

TEST(SweepService, DrainDealsNothingAndStaysResumable) {
    baseline_csv();
    SweepOptions opts;
    opts.csv_name = "svc_drain.csv";
    opts.manifest_name = "svc_drain.jsonl";
    {
        // --drain from the start (the SIGTERM path flips the same switch):
        // deal nothing, wait out in-flight leases (none), exit resumable.
        int port = 0;
        ServiceOptions svc = fast_svc(port);
        svc.drain = true;
        const SweepSummary drained =
            run_service(ctx(), tiny_spec(), opts, svc);
        EXPECT_EQ(drained.cells_executed, 0);
        EXPECT_EQ(drained.cells_pending, 4);
    }

    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    AgentProc agent(spawn_agent(port, 2));
    opts.resume = true;
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_pending, 0);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
}

}  // namespace
}  // namespace xs::sweep

// Own main: --worker invocations become sweep worker processes, --agent
// invocations become agent hosts (the children this suite forks), and
// everything else runs gtest.
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--worker") {
            const xs::util::Flags flags(argc, argv);
            xs::core::ExperimentContext ctx(flags);
            const xs::sweep::SweepSpec spec =
                xs::sweep::parse_sweep_spec(flags);
            return xs::sweep::worker_main(
                ctx, spec, static_cast<int>(flags.get_int("wire-in", -1)),
                static_cast<int>(flags.get_int("wire-out", -1)));
        }
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--agent=", 0) == 0) {
            const xs::util::Flags flags(argc, argv);
            xs::core::ExperimentContext ctx(flags);
            const xs::sweep::SweepSpec spec =
                xs::sweep::parse_sweep_spec(flags);
            xs::sweep::AgentOptions a;
            if (!xs::sweep::net::parse_hostport(
                    flags.get_string("agent", ""), a.host, a.port))
                return 2;
            a.workers = flags.get_int("workers", 1);
            a.worker_cmd = xs::sweep::worker_command_from_argv(argc, argv);
            a.reconnect_backoff_ms =
                flags.get_double("agent-backoff-ms", 250.0);
            a.max_reconnects = flags.get_int("agent-reconnects", -1);
            return xs::sweep::run_agent(ctx, spec, a);
        }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
