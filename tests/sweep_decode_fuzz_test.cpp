// Seeded mutation fuzz over every decoder that reads bytes from disk or a
// socket: the manifest line decoder (sweep/manifest.h) and the wire payload
// decoders (sweep/wire.h, sweep/net.h). Valid encodings are mutated by byte
// flips, truncations, insertions and duplicated fields; every case must
// either be rejected with the outputs untouched, or decode to a well-formed
// value that survives encode → decode unchanged. Labeled `unit`, so the
// sanitizer job runs it under ASan/UBSan.
#include "sweep/manifest.h"
#include "sweep/net.h"
#include "sweep/wire.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xs::sweep {
namespace {

constexpr int kCasesPerDecoder = 1500;

// Bytes that move parsers across their branches, plus any byte at all.
char interesting_byte(util::Rng& rng) {
    static const char kAlphabet[] = "0123456789-+.eE \"\\,:{}\n\r\tnaNiIfx";
    if (rng.uniform() < 0.25)
        return static_cast<char>(rng.uniform_index(256));
    return kAlphabet[rng.uniform_index(sizeof(kAlphabet) - 1)];
}

// Field boundaries of `text`: positions just before each separator.
std::vector<std::size_t> boundaries(const std::string& text, char sep) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] == sep) out.push_back(i);
    return out;
}

// One to three random edits. `sep` splits fields (',' for manifest lines,
// ' ' for wire payloads); a duplicated field is copied to another boundary.
std::string mutate(std::string text, char sep, util::Rng& rng) {
    const std::uint64_t edits = 1 + rng.uniform_index(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        switch (rng.uniform_index(4)) {
            case 0:  // byte flip
                if (!text.empty())
                    text[rng.uniform_index(text.size())] = interesting_byte(rng);
                break;
            case 1:  // truncation
                text.resize(rng.uniform_index(text.size() + 1));
                break;
            case 2: {  // insertion
                const std::size_t at = rng.uniform_index(text.size() + 1);
                const std::uint64_t n = 1 + rng.uniform_index(4);
                for (std::uint64_t i = 0; i < n; ++i)
                    text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                                interesting_byte(rng));
                break;
            }
            default: {  // duplicated field
                const std::vector<std::size_t> b = boundaries(text, sep);
                if (b.empty()) break;
                const std::size_t i = rng.uniform_index(b.size());
                std::size_t end = text.find(sep, b[i] + 1);
                if (end == std::string::npos) end = text.size();
                if (sep == ',' && text[end - 1] == '}') --end;
                const std::string field = text.substr(b[i], end - b[i]);
                text.insert(b[rng.uniform_index(b.size())], field);
                break;
            }
        }
    }
    return text;
}

bool same_double(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_result(const CellResult& a, const CellResult& b) {
    return same_double(a.accuracy, b.accuracy) &&
           same_double(a.nf_mean, b.nf_mean) &&
           same_double(a.energy_pj, b.energy_pj) &&
           same_double(a.software_acc, b.software_acc) &&
           same_double(a.wall_ms, b.wall_ms) && a.tiles == b.tiles &&
           a.solver_failures == b.solver_failures && a.backend == b.backend &&
           a.status == b.status && a.reason == b.reason &&
           a.attempts == b.attempts;
}

// The encoder never writes a line break inside a record.
bool one_line(const std::string& s) {
    return s.find('\n') == std::string::npos &&
           s.find('\r') == std::string::npos;
}

CellResult sentinel_result() {
    CellResult r;
    r.accuracy = -123.0;
    r.tiles = -7;
    r.backend = "sentinel";
    r.status = "sentinel";
    r.attempts = -9;
    return r;
}

struct Record {
    std::string id;
    CellResult result;
};

// Valid records, including string fields that need escaping.
std::vector<Record> manifest_records() {
    CellResult ok;
    ok.accuracy = 61.25;
    ok.nf_mean = 0.0123456789012345;
    ok.energy_pj = 1.5e7;
    ok.software_acc = 70.3125;
    ok.tiles = 1234;
    ok.solver_failures = 2;
    ok.wall_ms = 187.75;
    CellResult retried = ok;
    retried.attempts = 3;
    retried.backend = "fa\"st\\";
    CellResult failed;
    failed.status = "failed";
    failed.reason = "solver: \"diverged\" at C:\\tile 3";
    failed.attempts = 4;
    return {{"vgg11/c10/cf:0.8/x32/r0", ok},
            {"vgg16/\"c100\"/none\\x64/r3", retried},
            {"vgg11/c10/xrs:0.8/x16/r1", failed}};
}

TEST(DecodeFuzz, ManifestLineRejectsOrRoundTrips) {
    util::Rng rng(0xF022);
    std::vector<std::string> corpus;
    for (const Record& rec : manifest_records()) {
        corpus.push_back(encode_manifest_line(rec.id, rec.result));
        std::string id;
        CellResult r;
        ASSERT_TRUE(decode_manifest_line(corpus.back(), id, r)) << corpus.back();
        EXPECT_EQ(id, rec.id);
        EXPECT_TRUE(same_result(r, rec.result)) << corpus.back();
    }
    // A legacy line: "unconverged" before the solver_failures rename.
    corpus.push_back(
        "{\"cell\":\"a/r0\",\"accuracy\":50,\"nf_mean\":0.5,"
        "\"energy_pj\":1,\"software_acc\":60,\"tiles\":8,"
        "\"unconverged\":1}");
    int accepted = 0;
    for (int c = 0; c < 4 * kCasesPerDecoder; ++c) {
        const std::string line =
            mutate(corpus[rng.uniform_index(corpus.size())], ',', rng);
        SCOPED_TRACE("case " + std::to_string(c) + ": " + line);
        std::string id = "untouched";
        CellResult r = sentinel_result();
        if (!decode_manifest_line(line, id, r)) {
            EXPECT_EQ(id, "untouched");
            EXPECT_TRUE(same_result(r, sentinel_result()));
            continue;
        }
        ++accepted;
        EXPECT_GE(r.attempts, 1);
        EXPECT_GE(r.tiles, 0);
        EXPECT_GE(r.solver_failures, 0);
        EXPECT_TRUE(one_line(id) && one_line(r.backend) &&
                    one_line(r.status) && one_line(r.reason));
        const std::string again = encode_manifest_line(id, r);
        std::string id2;
        CellResult r2;
        ASSERT_TRUE(decode_manifest_line(again, id2, r2)) << again;
        EXPECT_EQ(id2, id);
        EXPECT_TRUE(same_result(r2, r)) << again;
    }
    // The mutations must leave a share of lines decodable, or the
    // round-trip half of the contract is never exercised.
    EXPECT_GT(accepted, kCasesPerDecoder / 4);
}

TEST(DecodeFuzz, WirePayloadsRejectOrRoundTrip) {
    util::Rng rng(0xF023);
    const std::vector<std::string> deals = {wire::encode_deal(17, 2),
                                            wire::encode_deal(0, 0),
                                            wire::encode_deal(123456789, 11)};
    const std::vector<std::string> joins = {
        net::encode_join("c4f1e2/ab", 4), net::encode_join("fp with spaces", 1)};
    const std::vector<std::string> join_oks = {
        net::encode_join_ok(250.0, 60000.0), net::encode_join_ok(0.125, 0.0)};
    const std::vector<std::string> fails = {
        net::encode_fail(3, "std::bad_alloc"),
        net::encode_fail(42, "solver: diverged at tile 7")};
    const auto pick = [&](const std::vector<std::string>& corpus) {
        return mutate(corpus[rng.uniform_index(corpus.size())], ' ', rng);
    };
    int accepted[4] = {};

    for (int c = 0; c < kCasesPerDecoder; ++c) {
        const std::string p = pick(deals);
        SCOPED_TRACE("deal '" + p + "'");
        std::int64_t idx = -5, att = -6;
        if (!wire::decode_deal(p, idx, att)) {
            EXPECT_EQ(idx, -5);
            EXPECT_EQ(att, -6);
            continue;
        }
        ++accepted[0];
        std::int64_t idx2 = 0, att2 = 0;
        ASSERT_TRUE(wire::decode_deal(wire::encode_deal(idx, att), idx2, att2));
        EXPECT_EQ(idx2, idx);
        EXPECT_EQ(att2, att);
    }

    for (int c = 0; c < kCasesPerDecoder; ++c) {
        const std::string p = pick(joins);
        SCOPED_TRACE("join '" + p + "'");
        std::string fp = "untouched";
        std::int64_t cap = -5;
        if (!net::decode_join(p, fp, cap)) {
            EXPECT_EQ(fp, "untouched");
            EXPECT_EQ(cap, -5);
            continue;
        }
        ++accepted[1];
        EXPECT_FALSE(fp.empty());
        EXPECT_GE(cap, 1);
        std::string fp2;
        std::int64_t cap2 = 0;
        ASSERT_TRUE(net::decode_join(net::encode_join(fp, cap), fp2, cap2));
        EXPECT_EQ(fp2, fp);
        EXPECT_EQ(cap2, cap);
    }

    for (int c = 0; c < kCasesPerDecoder; ++c) {
        const std::string p = pick(join_oks);
        SCOPED_TRACE("join_ok '" + p + "'");
        double hb = -5.0, lease = -6.0;
        if (!net::decode_join_ok(p, hb, lease)) {
            EXPECT_EQ(hb, -5.0);
            EXPECT_EQ(lease, -6.0);
            continue;
        }
        ++accepted[2];
        double hb2 = 0.0, lease2 = 0.0;
        ASSERT_TRUE(
            net::decode_join_ok(net::encode_join_ok(hb, lease), hb2, lease2));
        EXPECT_TRUE(same_double(hb2, hb));
        EXPECT_TRUE(same_double(lease2, lease));
    }

    for (int c = 0; c < kCasesPerDecoder; ++c) {
        const std::string p = pick(fails);
        SCOPED_TRACE("fail '" + p + "'");
        std::int64_t idx = -5;
        std::string reason = "untouched";
        if (!net::decode_fail(p, idx, reason)) {
            EXPECT_EQ(idx, -5);
            EXPECT_EQ(reason, "untouched");
            continue;
        }
        ++accepted[3];
        EXPECT_GE(idx, 0);
        std::int64_t idx2 = 0;
        std::string reason2;
        ASSERT_TRUE(net::decode_fail(net::encode_fail(idx, reason), idx2, reason2));
        EXPECT_EQ(idx2, idx);
        EXPECT_EQ(reason2, reason);
    }

    for (const int a : accepted) EXPECT_GT(a, kCasesPerDecoder / 10);

    // A fail frame whose index field is empty (strtoll reads "" as 0) must
    // not be pinned on cell 0.
    std::int64_t idx = -5;
    std::string reason = "untouched";
    EXPECT_FALSE(net::decode_fail(" 5 reason", idx, reason));
    EXPECT_EQ(idx, -5);
}

}  // namespace
}  // namespace xs::sweep
