// Unit tests for utilities: deterministic RNG, SI formatting, tables, time,
// CSV rows and the JSON writer's layouts.

#include "lint/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>

namespace gfi {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BelowIsBounded)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        sawLo = sawLo || v == 3;
        sawHi = sawHi || v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformCoversRangeRoughly)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += rng.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Units, FormatSiPicksPrefix)
{
    EXPECT_EQ(formatSi(1e-3, "A"), "1 mA");
    EXPECT_EQ(formatSi(10e-3, "A"), "10 mA");
    EXPECT_EQ(formatSi(5e7, "Hz"), "50 MHz");
    EXPECT_EQ(formatSi(100e-12, "s"), "100 ps");
    EXPECT_EQ(formatSi(3.3e-9, "F"), "3.3 nF");
    EXPECT_EQ(formatSi(0.0, "V"), "0 V");
}

TEST(Units, NegativeValues)
{
    EXPECT_EQ(formatSi(-2e-3, "A"), "-2 mA");
}

TEST(Time, Conversions)
{
    EXPECT_EQ(fromSeconds(1e-9), kNanosecond);
    EXPECT_EQ(fromSeconds(20e-9), 20 * kNanosecond);
    EXPECT_DOUBLE_EQ(toSeconds(kMillisecond), 1e-3);
    EXPECT_EQ(fromSeconds(toSeconds(123456789)), 123456789);
}

TEST(Time, Formatting)
{
    EXPECT_EQ(formatTime(0), "0 s");
    EXPECT_EQ(formatTime(kNanosecond), "1 ns");
    EXPECT_EQ(formatTime(20 * kNanosecond), "20 ns");
    EXPECT_EQ(formatTime(170 * kMicrosecond), "170 us");
    EXPECT_EQ(formatTime(500 * kPicosecond), "500 ps");
    EXPECT_EQ(formatTime(1500 * kPicosecond), "1.500 ns");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
    EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, SeparatorAndPadding)
{
    TextTable t;
    t.setHeader({"x", "y", "z"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"a", "b", "c"});
    const std::string s = t.str();
    // Short rows are padded; separators render as dashes.
    EXPECT_NE(s.find("| 1 |   |   |"), std::string::npos);
    EXPECT_NE(s.find("+---+"), std::string::npos);
}

TEST(Csv, QuotesSpecialCharacters)
{
    EXPECT_EQ(csvRow({"plain", "with,comma", "with\"quote"}),
              "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(JsonWriter, Layouts)
{
    using util::JsonWriter;
    using Layout = JsonWriter::Layout;
    const std::string hostile = "q\"b\\t\tn\nc\x01"
                                "z";
    const struct {
        const char* name;
        std::function<void(JsonWriter&)> build;
        std::string expected;
    } rows[] = {
        {"inline", [](JsonWriter& w) { w.beginObject().member("a", 1).member("b", 2).end(); },
         "{\"a\": 1, \"b\": 2}"},
        {"block",
         [](JsonWriter& w) {
             w.beginObject(Layout::Block).member("a", 1).key("o").beginObject(Layout::Block);
             w.member("x", true).end().key("i").beginArray().value(1).value(2).end().end();
         },
         "{\n  \"a\": 1,\n  \"o\": {\n    \"x\": true\n  },\n  \"i\": [1, 2]\n}"},
        {"block in inline",
         [](JsonWriter& w) {
             w.beginObject().key("e").beginArray(Layout::Block);
             w.beginObject().member("k", 1).end().beginObject().member("k", 2).end();
             w.end().member("u", "ms").end();
         },
         "{\"e\": [\n  {\"k\": 1},\n  {\"k\": 2}\n], \"u\": \"ms\"}"},
        {"empty inline",
         [](JsonWriter& w) { w.beginArray().beginObject().end().beginArray().end().end(); },
         "[{}, []]"},
        {"empty block",
         [](JsonWriter& w) {
             w.beginObject(Layout::Block).key("c").beginObject(Layout::Block).end();
             w.key("e").beginArray(Layout::Block).end().end();
         },
         "{\n  \"c\": {\n  },\n  \"e\": [\n  ]\n}"},
        {"empty block at root", [](JsonWriter& w) { w.beginArray(Layout::Block).end(); },
         "[\n]"},
        {"escaping",
         [&hostile](JsonWriter& w) { w.beginObject().member(hostile, hostile).end(); },
         "{\"q\\\"b\\\\t\\tn\\nc\\u0001z\": \"q\\\"b\\\\t\\tn\\nc\\u0001z\"}"},
        {"integer limits",
         [](JsonWriter& w) {
             w.beginArray().value(std::numeric_limits<std::int64_t>::min());
             w.value(std::numeric_limits<std::uint64_t>::max()).end();
         },
         "[-9223372036854775808, 18446744073709551615]"},
        {"scalars",
         [](JsonWriter& w) {
             w.beginObject().key("n").null().member("f", false).member("d", 1.0 / 3.0, 4);
             w.member("p", -0.1, 40);
             w.member("v", std::vector<std::string>{"x", "y"}).key("r").raw("{\"z\": 0}").end();
         },
         "{\"n\": null, \"f\": false, \"d\": 0.3333, \"p\": -0.10000000000000001, "
         "\"v\": [\"x\", \"y\"], "
         "\"r\": {\"z\": 0}}"},
        {"empty metrics registry",
         [](JsonWriter& w) { w.raw(obs::MetricsRegistry().json()); },
         "{\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  }\n}\n"},
        {"empty lint report", [](JsonWriter& w) { w.raw(lint::Report().json()); }, "[\n]"},
    };
    for (const auto& row : rows) {
        std::string out;
        JsonWriter w(out);
        row.build(w);
        EXPECT_EQ(out, row.expected) << row.name;
        EXPECT_NO_THROW((void)util::parseJson(out)) << row.name;
    }

    // Round trip: the escaped key and value read back as the original bytes.
    std::string doc;
    JsonWriter(doc).beginObject(Layout::Block).member(hostile, hostile).end();
    const util::JsonValue parsed = util::parseJson(doc);
    const util::JsonObject& members = parsed.asObject();
    ASSERT_EQ(members.size(), 1u);
    EXPECT_EQ(members[0].first, hostile);
    EXPECT_EQ(members[0].second.asString(), hostile);
}

} // namespace
} // namespace gfi
