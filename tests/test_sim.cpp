// Tests for the simulation bookkeeping substrate (counters, trace) and the
// table formatter the benches rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/counters.hpp"
#include "sim/trace.hpp"

namespace bfpsim {
namespace {

TEST(Counters, AddGetMergeReport) {
  Counters a;
  a.add("dsp.ops", 10);
  a.add("dsp.ops", 5);
  a.add("bram.reads");
  EXPECT_EQ(a.get("dsp.ops"), 15u);
  EXPECT_EQ(a.get("missing"), 0u);
  Counters b;
  b.add("dsp.ops", 1);
  b.add("other", 7);
  a.merge(b);
  EXPECT_EQ(a.get("dsp.ops"), 16u);
  EXPECT_EQ(a.get("other"), 7u);
  const std::string rep = a.report();
  EXPECT_NE(rep.find("dsp.ops=16"), std::string::npos);
  a.reset();
  EXPECT_EQ(a.get("dsp.ops"), 0u);
}

TEST(Counters, ConcurrentAddsFromPoolWorkersSumExactly) {
  // Counters is the one piece of shared mutable state parallel-engine
  // workers touch directly (e.g. the reliability counters of concurrent
  // ABFT tiles), so hammer it from every worker: uint64 addition commutes,
  // so the totals must be exact for any interleaving.
  Counters c;
  ThreadPool pool(8);
  const std::size_t tasks = 64;
  const int adds_per_task = 1000;
  pool.parallel_for(tasks, [&](std::size_t t) {
    for (int i = 0; i < adds_per_task; ++i) {
      c.add("shared.total");
      c.add(t % 2 == 0 ? "shard.even" : "shard.odd", 2);
    }
  });
  EXPECT_EQ(c.get("shared.total"), tasks * adds_per_task);
  EXPECT_EQ(c.get("shard.even"), 32u * adds_per_task * 2);
  EXPECT_EQ(c.get("shard.odd"), 32u * adds_per_task * 2);
}

TEST(Counters, ConcurrentMergeAndSnapshotAreConsistent) {
  // Readers snapshot while writers merge: every snapshot must be a
  // self-consistent map (the lock never escapes), and the final state must
  // hold the full sum regardless of interleaving.
  Counters total;
  ThreadPool pool(8);
  pool.parallel_for(16, [&](std::size_t t) {
    if (t % 4 == 3) {
      // Reader lane: snapshots may observe any prefix of the merges but
      // never a torn value (values only grow in steps of the merged bags).
      for (int i = 0; i < 200; ++i) {
        const auto snap = total.snapshot();
        const auto it = snap.find("bag");
        if (it != snap.end()) {
          EXPECT_EQ(it->second % 5, 0u);
        }
      }
    } else {
      Counters local;
      for (int i = 0; i < 100; ++i) local.add("bag", 5);
      total.merge(local);
    }
  });
  EXPECT_EQ(total.get("bag"), 12u * 100u * 5u);
  // Copy-assign under no contention round-trips the exact map.
  Counters copy;
  copy = total;
  EXPECT_EQ(copy.snapshot(), total.snapshot());
}

TEST(Trace, RecordsOnlyWhenEnabled) {
  Trace t;
  t.record(1, "pe", "ignored");
  EXPECT_TRUE(t.events().empty());
  t.enable(true);
  t.record(2, "pe", "mac");
  t.record(3, "eu", "align");
  t.record(4, "pe", "mac2");
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.for_component("pe").size(), 2u);
  EXPECT_NE(t.to_string().find("[3] eu: align"), std::string::npos);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, ForComponentPreservesOrderAndContents) {
  Trace t;
  t.enable(true);
  t.record(10, "unit0", "dispatch");
  t.record(11, "queue", "arrive");
  t.record(12, "unit0", "complete");
  t.record(12, "unit1", "dispatch");
  const auto u0 = t.for_component("unit0");
  ASSERT_EQ(u0.size(), 2u);
  EXPECT_EQ(u0[0].cycle, 10u);
  EXPECT_EQ(u0[0].message, "dispatch");
  EXPECT_EQ(u0[1].cycle, 12u);
  EXPECT_EQ(u0[1].message, "complete");
  EXPECT_TRUE(t.for_component("unit7").empty());
}

TEST(Trace, ToStringRendersEveryEventLine) {
  Trace t;
  t.enable(true);
  t.record(1, "a", "first");
  t.record(2, "b", "second");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("[1] a: first\n"), std::string::npos);
  EXPECT_NE(s.find("[2] b: second\n"), std::string::npos);
  EXPECT_EQ(Trace{}.to_string(), "");
}

TEST(Trace, CapacityBoundsMemoryAndCountsDrops) {
  Trace t;
  t.enable(true);
  t.set_capacity(3);
  for (int i = 0; i < 10; ++i) {
    t.record(static_cast<std::uint64_t>(i), "c", "e" + std::to_string(i));
  }
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);
  // The kept events are the earliest ones.
  EXPECT_EQ(t.events().front().message, "e0");
  EXPECT_EQ(t.events().back().message, "e2");
  // clear() resets the drop counter too; capacity persists.
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.capacity(), 3u);
  // Default remains unbounded.
  Trace unbounded;
  unbounded.enable(true);
  for (int i = 0; i < 1000; ++i) unbounded.record(1, "c", "m");
  EXPECT_EQ(unbounded.events().size(), 1000u);
  EXPECT_EQ(unbounded.dropped(), 0u);
}

TEST(Trace, JsonEscapeHandlesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9")
      << "non-ASCII bytes pass through";
}

TEST(Trace, ChromeJsonSchemaAndTidAssignment) {
  Trace t;
  t.enable(true);
  t.record(5, "unit0", "dispatch \"batch\"");
  t.record(9, "queue", "arrive\nreq1");
  t.record(12, "unit0", "complete");
  const std::string json = t.to_chrome_json();
  // Envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("],\"displayTimeUnit\":\"ns\"}"), std::string::npos);
  // Instant events with cycle timestamps.
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\",\"ts\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":9"), std::string::npos);
  // Escaped payloads, never raw quotes/newlines inside a string.
  EXPECT_NE(json.find("dispatch \\\"batch\\\""), std::string::npos);
  EXPECT_NE(json.find("arrive\\nreq1"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  // tid per component in first-seen order: unit0 -> 0, queue -> 1.
  EXPECT_NE(json.find("\"cat\":\"unit0\",\"ph\":\"i\",\"s\":\"t\",\"ts\":5,"
                      "\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"queue\",\"ph\":\"i\",\"s\":\"t\",\"ts\":9,"
                      "\"pid\":0,\"tid\":1"),
            std::string::npos);
  // Empty trace is still a valid document.
  EXPECT_EQ(Trace{}.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
  // The pid parameter (card id for merged multi-card timelines) defaults
  // to 0 byte-identically, and tags every event when set.
  EXPECT_EQ(t.to_chrome_json(), t.to_chrome_json(0));
  const std::string tagged = t.to_chrome_json(3);
  EXPECT_NE(tagged.find("\"pid\":3,\"tid\":0"), std::string::npos);
  EXPECT_EQ(tagged.find("\"pid\":0"), std::string::npos);
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"b", "23456"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("| 23456 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, RejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(t.set_align(5, Align::kLeft), Error);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ratio(1.190, 2), "1.19x");
  EXPECT_EQ(fmt_percent(97.154, 2), "97.15%");
  const std::string bar = ascii_bar("x", 5.0, 10.0, 10, "u");
  EXPECT_NE(bar.find("#####"), std::string::npos);
  EXPECT_NE(bar.find("5.00 u"), std::string::npos);
}

TEST(Stats, MeanAndStddev) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944, 1e-6);
  EXPECT_EQ(mean(std::span<const double>{}), 0.0);
  const double one[] = {5.0};
  EXPECT_EQ(stddev(one), 0.0);
}

TEST(Stats, ErrorStatsBasics) {
  const float a[] = {1.0F, 2.0F, 3.0F};
  const float b[] = {1.0F, 2.0F, 3.0F};
  const ErrorStats s = compute_error_stats(a, b);
  EXPECT_EQ(s.max_abs, 0.0);
  EXPECT_TRUE(std::isinf(s.snr_db));
  const float c[] = {1.1F, 2.0F, 3.0F};
  const ErrorStats s2 = compute_error_stats(c, b);
  EXPECT_NEAR(s2.max_abs, 0.1, 1e-6);
  EXPECT_GT(s2.snr_db, 20.0);
  EXPECT_LT(s2.snr_db, 40.0);
}

TEST(Stats, CosineSimilarity) {
  const float a[] = {1.0F, 0.0F};
  const float b[] = {0.0F, 1.0F};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, a), 1.0);
  const float z[] = {0.0F, 0.0F};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, z), 0.0);
}

}  // namespace
}  // namespace bfpsim
