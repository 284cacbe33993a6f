// Seeded mutation fuzz over every decoder that reads bytes from disk or a
// socket: the manifest line decoder (sweep/manifest.h), the wire payload
// decoders (sweep/wire.h, sweep/net.h), the wire frame readers
// (wire::MessageReader and wire::read_message) and the spec-file reader
// (sweep/spec.h). Valid encodings are mutated by byte flips, truncations,
// insertions and duplicated fields; every case must either be rejected with
// the outputs untouched, or decode to a well-formed value that survives
// encode → decode unchanged. Labeled `unit`, so the sanitizer job runs it
// under ASan/UBSan.
#include "sweep/manifest.h"
#include "sweep/net.h"
#include "sweep/spec.h"
#include "sweep/wire.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
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
    CellResult braces = failed;
    braces.reason = "shape mismatch {3, 4}";
    braces.attempts = 2;
    return {{"vgg11/c10/cf:0.8/x32/r0", ok},
            {"vgg16/\"c100\"/none\\x64/r3", retried},
            {"vgg11/c10/xrs:0.8/x16/r1", failed},
            {"vgg11/c10/{xcs}/x64/r0", braces}};
}

TEST(DecodeFuzz, ManifestBracesInStringsRoundTrip) {
    CellResult failed;
    failed.status = "failed";
    failed.reason = "shape mismatch {3, 4}";
    failed.attempts = 3;
    const std::string line = encode_manifest_line("a/{b}/r0", failed);
    // Braces inside strings are escaped, so the record keeps exactly one of
    // each — the torn-line check's invariant.
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'), 1) << line;
    EXPECT_EQ(std::count(line.begin(), line.end(), '}'), 1) << line;
    std::string id;
    CellResult r;
    ASSERT_TRUE(decode_manifest_line(line, id, r)) << line;
    EXPECT_EQ(id, "a/{b}/r0");
    EXPECT_EQ(r.reason, "shape mismatch {3, 4}");
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.attempts, 3);

    // A torn record with the next append glued on is still rejected.
    const std::string glued = line.substr(0, line.size() / 2) + line;
    id = "untouched";
    EXPECT_FALSE(decode_manifest_line(glued, id, r)) << glued;
    EXPECT_EQ(id, "untouched");

    // Text that merely looks like an escape survives as text.
    failed.reason = "literal \\u007b and \\u12";
    ASSERT_TRUE(
        decode_manifest_line(encode_manifest_line("x", failed), id, r));
    EXPECT_EQ(r.reason, failed.reason);
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

// Frames as a writer would put them on a pipe: a 4-byte little-endian
// length, a type byte, the payload.
std::string frame(wire::MsgType type, const std::string& payload) {
    std::string out(5, '\0');
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int k = 0; k < 4; ++k)
        out[static_cast<std::size_t>(k)] = static_cast<char>((len >> (8 * k)) & 0xff);
    out[4] = static_cast<char>(type);
    return out + payload;
}

// Overwrite the length prefix at `at` with `len`.
void set_length(std::string& stream, std::size_t at, std::uint32_t len) {
    for (int k = 0; k < 4 && at + static_cast<std::size_t>(k) < stream.size(); ++k)
        stream[at + static_cast<std::size_t>(k)] =
            static_cast<char>((len >> (8 * k)) & 0xff);
}

// Write `bytes` into a fresh pipe and close the write end; returns the read
// end (nonblocking when asked). The streams here stay far below the pipe's
// buffer, so the write never blocks.
int pipe_with(const std::string& bytes, bool nonblocking) {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fds[1]);
    if (nonblocking) ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    return fds[0];
}

std::vector<wire::Message> read_all_reader(const std::string& bytes,
                                           bool& corrupt_or_eof) {
    const int fd = pipe_with(bytes, /*nonblocking=*/true);
    wire::MessageReader reader(fd);
    reader.fill();  // the write end is closed, so this reads to EOF
    std::vector<wire::Message> out;
    wire::Message m;
    while (reader.pop(m)) out.push_back(m);
    corrupt_or_eof = reader.finished();
    ::close(fd);
    return out;
}

std::vector<wire::Message> read_all_blocking(const std::string& bytes) {
    const int fd = pipe_with(bytes, /*nonblocking=*/false);
    std::vector<wire::Message> out;
    wire::Message m;
    while (wire::read_message(fd, m)) out.push_back(m);
    ::close(fd);
    return out;
}

TEST(DecodeFuzz, WireFrameReadersAgreeOnMutatedStreams) {
    util::Rng rng(0xF024);
    const std::vector<std::string> payloads = {
        "",
        wire::encode_deal(17, 2),
        "{\"cell\":\"vgg11/c10/none/x16/r0\",\"accuracy\":50}",
        net::encode_fail(3, "solver: diverged"),
        std::string(300, 'x')};
    int truncated = 0, oversized = 0, corrupted = 0;
    for (int c = 0; c < kCasesPerDecoder / 3; ++c) {
        // A stream of one to four valid frames...
        std::string stream;
        std::vector<std::size_t> starts;
        const std::uint64_t frames = 1 + rng.uniform_index(4);
        for (std::uint64_t f = 0; f < frames; ++f) {
            starts.push_back(stream.size());
            stream += frame(static_cast<wire::MsgType>(1 + rng.uniform_index(8)),
                            payloads[rng.uniform_index(payloads.size())]);
        }
        // ...then one corruption of its framing.
        const std::size_t at = starts[rng.uniform_index(starts.size())];
        switch (rng.uniform_index(4)) {
            case 0:  // truncated: cut anywhere, length prefix included
                stream.resize(rng.uniform_index(stream.size() + 1));
                ++truncated;
                break;
            case 1:  // oversized length prefix
                set_length(stream, at,
                           wire::kMaxPayload + 1 +
                               static_cast<std::uint32_t>(rng.uniform_index(1u << 20)));
                ++oversized;
                break;
            case 2:  // corrupt length prefix: any value up to the cap
                set_length(stream, at,
                           static_cast<std::uint32_t>(
                               rng.uniform_index(wire::kMaxPayload + 1)));
                ++corrupted;
                break;
            default:  // byte-level mutation of the whole stream
                stream = mutate(stream, '\0', rng);
                ++corrupted;
                break;
        }
        SCOPED_TRACE("case " + std::to_string(c) + ", " +
                     std::to_string(stream.size()) + " bytes");

        bool finished = false;
        const std::vector<wire::Message> got = read_all_reader(stream, finished);
        // The reader always ends finished (EOF or a corrupt frame), never
        // yields a frame past the cap, and never invents bytes: its frames
        // re-encode to a prefix of the stream.
        EXPECT_TRUE(finished);
        std::string rebuilt;
        for (const wire::Message& m : got) {
            EXPECT_LE(m.payload.size(), wire::kMaxPayload);
            rebuilt += frame(m.type, m.payload);
        }
        EXPECT_EQ(stream.compare(0, rebuilt.size(), rebuilt), 0);
        EXPECT_LE(rebuilt.size(), stream.size());

        // The blocking reader sees exactly the same frames.
        const std::vector<wire::Message> blocking = read_all_blocking(stream);
        ASSERT_EQ(blocking.size(), got.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(blocking[i].type, got[i].type);
            EXPECT_EQ(blocking[i].payload, got[i].payload);
        }
    }
    EXPECT_GT(truncated, 0);
    EXPECT_GT(oversized, 0);
    EXPECT_GT(corrupted, 0);

    // An oversized length prefix marks the stream corrupt at once, while
    // the peer is still connected: the reader does not wait for 1 MiB+ of
    // payload that a sane writer can never send.
    {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        std::string bad = frame(wire::MsgType::kAck, "ok");
        const std::size_t at = bad.size();
        bad += frame(wire::MsgType::kAck, "x");
        set_length(bad, at, wire::kMaxPayload + 1);
        ASSERT_EQ(::write(fds[1], bad.data(), bad.size()),
                  static_cast<ssize_t>(bad.size()));
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        wire::MessageReader reader(fds[0]);
        EXPECT_TRUE(reader.fill());  // drained; the writer is still open
        wire::Message m;
        ASSERT_TRUE(reader.pop(m));
        EXPECT_EQ(m.payload, "ok");
        EXPECT_FALSE(reader.pop(m));
        EXPECT_TRUE(reader.finished());
        ::close(fds[0]);
        ::close(fds[1]);
    }

    // An unmutated stream reads back frame for frame.
    std::string stream;
    for (const std::string& p : payloads) stream += frame(wire::MsgType::kAck, p);
    bool finished = false;
    const std::vector<wire::Message> got = read_all_reader(stream, finished);
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].payload, payloads[i]);
}

std::string spec_fuzz_path() {
    const auto dir =
        std::filesystem::temp_directory_path() / "xs_sweep_decode_fuzz";
    std::filesystem::create_directories(dir);
    return (dir / "fuzz.sweep").string();
}

util::Flags flags_of(const std::vector<std::string>& args) {
    std::vector<std::string> strings = args;
    std::vector<char*> argv;
    static const char* name = "sweep_decode_fuzz_test";
    argv.push_back(const_cast<char*>(name));
    for (std::string& a : strings) argv.push_back(a.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(DecodeFuzz, SpecFileRejectsOrMatchesTheSameFlags) {
    util::Rng rng(0xF025);
    const std::vector<std::string> corpus = {
        "# paper grid\n"
        "variants = vgg11,vgg16\n"
        "classes = 10\n"
        "prune = none,cf:0.8,xcs:0.8,xrs:0.8\n"
        "mitigations = none,rearrange,wct+r\n"
        "sizes = 16,32,64\n",
        "sigmas = 0.1,0.2\n"
        "parasitic-scales = 0.5,1,2\n"
        "faults = 0:0,0.01:0.001\n"
        "quant-levels = 0,64\n"
        "backends = circuit,fast,ideal\n"
        "sweep-repeats = 2\n"
        "nf-only = true   # trailing comment\n"};
    const std::string path = spec_fuzz_path();
    int accepted = 0;
    for (int c = 0; c < kCasesPerDecoder / 3; ++c) {
        const std::string text =
            mutate(corpus[rng.uniform_index(corpus.size())], '\n', rng);
        SCOPED_TRACE("case " + std::to_string(c) + ":\n" + text);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << text;
        }
        std::map<std::string, std::string> kv;
        SweepSpec spec;
        try {
            kv = read_spec_file(path);
            spec = parse_sweep_spec(flags_of({"--spec=" + path}));
        } catch (const std::exception&) {
            continue;  // rejected loudly: the contract's other half
        }
        ++accepted;
        EXPECT_GE(spec.repeats, 1);
        EXPECT_FALSE(spec.variants.empty() || spec.class_counts.empty() ||
                     spec.prunes.empty() || spec.mitigations.empty() ||
                     spec.sizes.empty() || spec.sigmas.empty() ||
                     spec.parasitic_scales.empty() || spec.faults.empty() ||
                     spec.quant_levels.empty() || spec.backends.empty());
        // The file says no more than its key/value pairs: the same pairs as
        // command-line flags give the same grid.
        std::vector<std::string> args;
        for (const auto& [key, value] : kv) args.push_back("--" + key + "=" + value);
        const SweepSpec from_flags = parse_sweep_spec(flags_of(args));
        EXPECT_EQ(from_flags.describe(), spec.describe());
        EXPECT_EQ(from_flags.nf_only, spec.nf_only);
        EXPECT_EQ(from_flags.sizes, spec.sizes);
        EXPECT_EQ(from_flags.variants, spec.variants);
    }
    EXPECT_GT(accepted, kCasesPerDecoder / 30);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace xs::sweep
