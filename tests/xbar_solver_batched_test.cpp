// Bit-identity of the multi-lane solver/degrade path against one-lane
// solves: every lane's voltages, currents, sweep counts, NF, and warm-chain
// behaviour must be byte-identical to solving that repeat alone — the
// property the repeat-batched evaluator relies on.
//
// The solver once had a separate scalar kernel. Its outputs are pinned here
// as golden FNV-1a digests (recorded from that kernel before it was
// deleted), and the one remaining kernel must reproduce them, in one lane
// and as one lane of a wider solve.
#include "util/rng.h"
#include "xbar/config.h"
#include "xbar/degrade.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace xs::xbar {
namespace {

using tensor::Tensor;

CrossbarConfig config_of(std::int64_t size, double rd, double rwr, double rwc,
                         double rs) {
    CrossbarConfig c;
    c.size = size;
    c.parasitics.r_driver = rd;
    c.parasitics.r_wire_row = rwr;
    c.parasitics.r_wire_col = rwc;
    c.parasitics.r_sense = rs;
    return c;
}

Tensor random_g(std::int64_t n, std::uint64_t seed, const DeviceConfig& dev) {
    util::Rng rng(seed);
    Tensor g({n, n});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(rng.uniform(dev.g_min(), dev.g_max()));
    return g;
}

// One-lane solve of `g`: the reference every lane is compared against.
void solve_one(const CircuitSolver& solver, const Tensor& g,
               const double* v, SolveWorkspace& ws) {
    const Tensor* gp = &g;
    solver.solve(&gp, 1, v, ws);
}

void degrade_one(const CircuitSolver& solver, const Tensor& g,
                 DegradeWorkspace& ws, TileDegradeResult& out) {
    const Tensor* gp = &g;
    TileDegradeResult* op = &out;
    degrade_tiles(&gp, 1, solver, ws, &op);
}

struct Fnv1a {
    std::uint64_t h = 14695981039346656037ull;
    void add(const void* p, std::size_t bytes) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < bytes; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
};

// Digests of the deleted scalar kernel. Each case draws, from Rng(1000 + X),
// X input voltages uniform in [0, 0.3] V and then a chain of three tiles
// uniform in [G_MIN, G_MAX], solved at the default parasitics — cold (every
// solve restarts flat) or warm (each solve starts from the previous one's
// voltages) — and hashes, per solve, the bit patterns of vr, vc (X² doubles
// each), currents (X doubles) and the int32 iteration count.
struct GoldenCase {
    std::int64_t n;
    double omega;
    bool warm;
    std::uint64_t digest;
};
constexpr GoldenCase kScalarKernelGolden[] = {
    {8, 1.0, false, 0x4482ad800e869d0bull},
    {8, 1.0, true, 0x77bde3840b5c7ec7ull},
    {8, 1.5, false, 0x28b875cac444a364ull},
    {8, 1.5, true, 0x8e4264301b638fdcull},
    {16, 1.0, false, 0x04cf15af60d36d39ull},
    {16, 1.0, true, 0xb1b89b84a20700aaull},
    {16, 1.5, false, 0x4e9a7a847b2884f6ull},
    {16, 1.5, true, 0xad22fecd9f487b1full},
    {32, 1.0, false, 0xf80dc149a01ae8b6ull},
    {32, 1.0, true, 0xa3ed555c966e748dull},
    {32, 1.5, false, 0x631b5820a561693cull},
    {32, 1.5, true, 0x5f8088c686fad1e9ull},
    {64, 1.0, false, 0xcd295623a41356ffull},
    {64, 1.0, true, 0x2ac00ac10b98aa68ull},
    {64, 1.5, false, 0x6e15fe113677688bull},
    {64, 1.5, true, 0x06d746ab4d107a65ull},
};

// Run one golden case with the chain in lane `lane` of a `lanes`-wide solve
// (the other lanes solve unrelated tiles) and hash that lane's outputs.
std::uint64_t golden_chain_digest(const GoldenCase& gc, int lanes, int lane) {
    const std::int64_t n = gc.n;
    CrossbarConfig c;
    c.size = n;
    CircuitSolver solver(c);
    solver.set_relaxation(gc.omega);
    util::Rng rng(1000 + static_cast<std::uint64_t>(n));
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.uniform(0.0, 0.3);
    std::vector<Tensor> others;
    for (int r = 0; r < lanes; ++r)
        others.push_back(random_g(n, 77 + static_cast<std::uint64_t>(r), c.device));

    SolveWorkspace ws;
    Fnv1a f;
    const auto L = static_cast<std::size_t>(lanes);
    const auto at = [&](std::int64_t k) {
        return static_cast<std::size_t>(k) * L + static_cast<std::size_t>(lane);
    };
    for (int t = 0; t < 3; ++t) {
        Tensor g({n, n});
        for (std::int64_t k = 0; k < g.numel(); ++k)
            g[k] = static_cast<float>(
                rng.uniform(c.device.g_min(), c.device.g_max()));
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gp.push_back(r == lane ? &g : &others[static_cast<std::size_t>(r)]);
        if (!gc.warm) ws.invalidate();
        solver.solve(gp.data(), lanes, v.data(), ws);
        for (std::int64_t k = 0; k < n * n; ++k) f.add(&ws.vr[at(k)], sizeof(double));
        for (std::int64_t k = 0; k < n * n; ++k) f.add(&ws.vc[at(k)], sizeof(double));
        for (std::int64_t j = 0; j < n; ++j)
            f.add(&ws.currents[at(j)], sizeof(double));
        const std::int32_t it = ws.iterations[lane];
        f.add(&it, sizeof(it));
    }
    return f.h;
}

// Compare doubles as bits: the contract is bit-identity, not closeness.
void expect_bits_eq(double a, double b, const char* what, int lane) {
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ba, bb) << what << " mismatch in lane " << lane << ": " << a
                      << " vs " << b;
}

TEST(BatchedSolver, OneLaneMatchesScalarKernelDigests) {
    for (const GoldenCase& gc : kScalarKernelGolden) {
        SCOPED_TRACE("n=" + std::to_string(gc.n) +
                     " omega=" + std::to_string(gc.omega) +
                     (gc.warm ? " warm" : " cold"));
        EXPECT_EQ(golden_chain_digest(gc, 1, 0), gc.digest);
        // The same chain riding lane 3 of a five-lane solve.
        EXPECT_EQ(golden_chain_digest(gc, 5, 3), gc.digest);
    }
}

TEST(BatchedSolver, ColdSolveMatchesScalarBitExact) {
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);

    for (int lanes = 1; lanes <= kMaxSolveLanes; ++lanes) {
        std::vector<Tensor> gs;
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(16, 100 + static_cast<std::uint64_t>(r), c.device));
        for (auto& g : gs) gp.push_back(&g);

        SolveWorkspace bws;
        solver.solve(gp.data(), lanes, v.data(), bws);

        for (int r = 0; r < lanes; ++r) {
            SolveWorkspace sws;
            solve_one(solver, gs[static_cast<std::size_t>(r)], v.data(), sws);
            ASSERT_EQ(bws.iterations[r], sws.iterations[0]) << "lane " << r;
            EXPECT_EQ(bws.converged[r], sws.converged[0]);
            expect_bits_eq(bws.max_delta[r], sws.max_delta[0], "max_delta", r);
            for (std::int64_t k = 0; k < 16 * 16; ++k) {
                expect_bits_eq(bws.vr[static_cast<std::size_t>(k * lanes + r)],
                               sws.vr[static_cast<std::size_t>(k)], "vr", r);
                expect_bits_eq(bws.vc[static_cast<std::size_t>(k * lanes + r)],
                               sws.vc[static_cast<std::size_t>(k)], "vc", r);
            }
            for (std::int64_t j = 0; j < 16; ++j)
                expect_bits_eq(
                    bws.currents[static_cast<std::size_t>(j * lanes + r)],
                    sws.currents[static_cast<std::size_t>(j)], "currents", r);
        }
    }
}

TEST(BatchedSolver, WarmChainMatchesScalarChainPerLane) {
    // Each lane solves a sequence of statistically-similar tiles with warm
    // starts; lane r's chain must match an independent one-lane chain over
    // the same tile sequence, even though the lanes converge at different
    // sweeps.
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);
    const int lanes = 5;
    const int steps = 4;

    std::vector<std::vector<Tensor>> chain(static_cast<std::size_t>(lanes));
    for (int r = 0; r < lanes; ++r)
        for (int s = 0; s < steps; ++s)
            chain[static_cast<std::size_t>(r)].push_back(random_g(
                16, 1000 + static_cast<std::uint64_t>(r * steps + s), c.device));

    SolveWorkspace bws;
    std::vector<SolveWorkspace> sws(static_cast<std::size_t>(lanes));
    for (int s = 0; s < steps; ++s) {
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gp.push_back(&chain[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)]);
        solver.solve(gp.data(), lanes, v.data(), bws);
        for (int r = 0; r < lanes; ++r) {
            const SolveWorkspace& one = sws[static_cast<std::size_t>(r)];
            solve_one(solver, *gp[static_cast<std::size_t>(r)], v.data(),
                      sws[static_cast<std::size_t>(r)]);
            ASSERT_EQ(bws.iterations[r], one.iterations[0])
                << "step " << s << " lane " << r;
            for (std::int64_t k = 0; k < 16 * 16; ++k)
                expect_bits_eq(bws.vc[static_cast<std::size_t>(k * lanes + r)],
                               one.vc[static_cast<std::size_t>(k)], "vc", r);
            for (std::int64_t j = 0; j < 16; ++j)
                expect_bits_eq(
                    bws.currents[static_cast<std::size_t>(j * lanes + r)],
                    one.currents[static_cast<std::size_t>(j)], "currents", r);
        }
    }
}

TEST(BatchedSolver, LanesConvergeIndependently) {
    // A lane with a much harder field (heavier parasitics make coupling
    // stronger) must not perturb an easier lane's result.
    const CrossbarConfig c = config_of(16, 500, 8, 8, 500);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);

    Tensor easy({16, 16}, static_cast<float>(c.device.g_min()));
    Tensor hard = random_g(16, 7, c.device);
    for (std::int64_t i = 0; i < hard.numel(); ++i)
        hard[i] = static_cast<float>(c.device.g_max() * 2.0);

    const Tensor* gp[2] = {&easy, &hard};
    SolveWorkspace bws;
    solver.solve(gp, 2, v.data(), bws);

    SolveWorkspace se, sh;
    solve_one(solver, easy, v.data(), se);
    solve_one(solver, hard, v.data(), sh);
    EXPECT_NE(se.iterations[0], sh.iterations[0]);  // genuinely different lanes
    ASSERT_EQ(bws.iterations[0], se.iterations[0]);
    ASSERT_EQ(bws.iterations[1], sh.iterations[0]);
    for (std::int64_t j = 0; j < 16; ++j) {
        expect_bits_eq(bws.currents[static_cast<std::size_t>(j * 2)],
                       se.currents[static_cast<std::size_t>(j)], "easy", 0);
        expect_bits_eq(bws.currents[static_cast<std::size_t>(j * 2 + 1)],
                       sh.currents[static_cast<std::size_t>(j)], "hard", 1);
    }
}

void expect_same_tile(const TileDegradeResult& b, const TileDegradeResult& e,
                      int step, int lane) {
    ASSERT_EQ(b.sweeps, e.sweeps) << "step " << step << " lane " << lane;
    EXPECT_EQ(b.converged, e.converged);
    expect_bits_eq(b.nf, e.nf, "nf", lane);
    ASSERT_EQ(b.g_eff.numel(), e.g_eff.numel());
    for (std::int64_t k = 0; k < b.g_eff.numel(); ++k)
        EXPECT_EQ(b.g_eff[k], e.g_eff[k]) << "g_eff[" << k << "] lane " << lane;
}

TEST(BatchedDegrade, MatchesScalarDegradeIncludingWarmRetry) {
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const int lanes = 3;
    const int steps = 3;

    DegradeWorkspace bws;
    std::vector<DegradeWorkspace> sws(static_cast<std::size_t>(lanes));
    std::vector<TileDegradeResult> bout(static_cast<std::size_t>(lanes));
    std::vector<TileDegradeResult> sout(static_cast<std::size_t>(lanes));

    for (int s = 0; s < steps; ++s) {
        std::vector<Tensor> gs;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(
                16, 5000 + static_cast<std::uint64_t>(s * lanes + r), c.device));
        std::vector<const Tensor*> gp;
        std::vector<TileDegradeResult*> op;
        for (int r = 0; r < lanes; ++r) {
            gp.push_back(&gs[static_cast<std::size_t>(r)]);
            op.push_back(&bout[static_cast<std::size_t>(r)]);
        }
        degrade_tiles(gp.data(), lanes, solver, bws, op.data());
        for (int r = 0; r < lanes; ++r) {
            degrade_one(solver, gs[static_cast<std::size_t>(r)],
                        sws[static_cast<std::size_t>(r)],
                        sout[static_cast<std::size_t>(r)]);
            expect_same_tile(bout[static_cast<std::size_t>(r)],
                             sout[static_cast<std::size_t>(r)], s, r);
        }
    }
}

TEST(BatchedDegrade, ColdRetryOnFailedWarmSolveIsDeterministic) {
    // Alternate a full sweep budget (the solve converges and leaves warm
    // state) with a two-sweep budget (the warm-started solve fails). Every
    // failed warm lane must retry cold and be spliced back, so each lane of
    // a three-lane degrade chain matches its one-lane chain and, on the
    // failing steps, a fresh cold degrade — bit for bit.
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    CircuitSolver solver(c);
    const int full_budget = solver.max_sweeps();
    const int lanes = 3;

    DegradeWorkspace bws;
    std::vector<DegradeWorkspace> sws(static_cast<std::size_t>(lanes));
    std::vector<TileDegradeResult> bout(static_cast<std::size_t>(lanes));
    for (int s = 0; s < 4; ++s) {
        const bool starved = s % 2 == 1;
        solver.set_max_sweeps(starved ? 2 : full_budget);
        std::vector<Tensor> gs;
        std::vector<const Tensor*> gp;
        std::vector<TileDegradeResult*> op;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(
                16, 42 + static_cast<std::uint64_t>(s * lanes + r), c.device));
        for (int r = 0; r < lanes; ++r) {
            gp.push_back(&gs[static_cast<std::size_t>(r)]);
            op.push_back(&bout[static_cast<std::size_t>(r)]);
        }
        degrade_tiles(gp.data(), lanes, solver, bws, op.data());
        for (int r = 0; r < lanes; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            TileDegradeResult chained;
            degrade_one(solver, gs[ri], sws[ri], chained);
            EXPECT_EQ(bout[ri].converged, !starved);
            expect_same_tile(bout[ri], chained, s, r);
            if (starved) {
                TileDegradeResult cold;
                DegradeWorkspace fresh;
                degrade_one(solver, gs[ri], fresh, cold);
                expect_same_tile(bout[ri], cold, s, r);
            }
        }
    }
}

}  // namespace
}  // namespace xs::xbar
