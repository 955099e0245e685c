// Unit tests for the telemetry subsystem: registry semantics (get-or-create, kind collisions,
// snapshot order, providers), tracing spans (nesting, charging, abandonment), deterministic
// sink output, and measured (not estimated) GC-interference attribution at the flash layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/telemetry/aggregate.h"
#include "src/telemetry/metric_registry.h"
#include "src/telemetry/sink.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

TEST(MetricRegistryTest, GetOrCreateReturnsSamePointer) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  ASSERT_NE(a, nullptr);
  a->Add(3);
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, KindCollisionReturnsNullAndCounts) {
  MetricRegistry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x"), nullptr);
  EXPECT_EQ(reg.collisions(), 2u);
  // The original registration is untouched.
  MetricKind kind;
  ASSERT_TRUE(reg.Lookup("x", &kind));
  EXPECT_EQ(kind, MetricKind::kCounter);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, SnapshotSortedByName) {
  MetricRegistry reg;
  reg.GetCounter("z.last");
  reg.GetGauge("a.first");
  reg.GetHistogram("m.middle");
  std::vector<MetricRegistry::Entry> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[2].kind, MetricKind::kCounter);
}

TEST(MetricRegistryTest, ProvidersRunBeforeSnapshotAndReplaceById) {
  MetricRegistry reg;
  int calls = 0;
  reg.AddProvider("layer", [&] {
    calls++;
    reg.GetCounter("layer.refreshed")->Set(static_cast<std::uint64_t>(calls));
  });
  // Replacing by the same id must not double-register.
  reg.AddProvider("layer", [&] {
    calls += 10;
    reg.GetCounter("layer.refreshed")->Set(static_cast<std::uint64_t>(calls));
  });
  std::vector<MetricRegistry::Entry> snap = reg.Snapshot();
  EXPECT_EQ(calls, 10);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].counter, 10u);
}

TEST(TracerTest, SpanRecordsComponentHistograms) {
  MetricRegistry reg;
  Timeline timeline;
  Tracer tracer(&reg, &timeline);
  Tracer::Span span = Tracer::Start(tracer.Intern("op"), 1000);
  tracer.Charge(/*queue_ns=*/10, /*gc_ns=*/20, /*flash_ns=*/30);
  span.End(1100);
  const Histogram* total = reg.GetHistogram("span.op.total_ns");
  const Histogram* queue = reg.GetHistogram("span.op.queue_ns");
  const Histogram* gc = reg.GetHistogram("span.op.gc_ns");
  const Histogram* flash = reg.GetHistogram("span.op.flash_ns");
  const Histogram* host = reg.GetHistogram("span.op.host_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 1u);
  EXPECT_EQ(total->sum(), 100u);
  EXPECT_EQ(queue->sum(), 10u);
  EXPECT_EQ(gc->sum(), 20u);
  EXPECT_EQ(flash->sum(), 30u);
  EXPECT_EQ(host->sum(), 40u);  // 100 - (10 + 20 + 30).
}

TEST(TracerTest, NestedSpansBothSeeCharges) {
  MetricRegistry reg;
  Timeline timeline;
  Tracer tracer(&reg, &timeline);
  Tracer::Span outer = Tracer::Start(tracer.Intern("outer"), 0);
  Tracer::Span inner = Tracer::Start(tracer.Intern("inner"), 10);
  tracer.Charge(0, 0, /*flash_ns=*/50);
  inner.End(100);
  // Only the outer span remains open; further charges reach it alone.
  tracer.Charge(0, 0, /*flash_ns=*/25);
  outer.End(200);
  EXPECT_EQ(reg.GetHistogram("span.inner.flash_ns")->sum(), 50u);
  EXPECT_EQ(reg.GetHistogram("span.outer.flash_ns")->sum(), 75u);
}

// Spans are snapshots, not a stack: the outer span may end first and each still gets exactly
// the charges made while it was open.
TEST(TracerTest, OuterSpanEndingFirstKeepsBothSums) {
  MetricRegistry reg;
  Timeline timeline;
  Tracer tracer(&reg, &timeline);
  tracer.Charge(1, 1, 1);  // Before either span: seen by neither.
  Tracer::Span outer = Tracer::Start(tracer.Intern("outer"), 0);
  tracer.Charge(/*queue_ns=*/5, 0, 0);
  Tracer::Span inner = Tracer::Start(tracer.Intern("inner"), 10);
  tracer.Charge(0, /*gc_ns=*/7, 0);
  outer.End(100);
  tracer.Charge(0, 0, /*flash_ns=*/11);  // After outer ended: inner only.
  inner.End(200);
  EXPECT_EQ(reg.GetHistogram("span.outer.queue_ns")->sum(), 5u);
  EXPECT_EQ(reg.GetHistogram("span.outer.gc_ns")->sum(), 7u);
  EXPECT_EQ(reg.GetHistogram("span.outer.flash_ns")->sum(), 0u);
  EXPECT_EQ(reg.GetHistogram("span.outer.host_ns")->sum(), 88u);  // 100 - (5 + 7).
  EXPECT_EQ(reg.GetHistogram("span.inner.queue_ns")->sum(), 0u);
  EXPECT_EQ(reg.GetHistogram("span.inner.gc_ns")->sum(), 7u);
  EXPECT_EQ(reg.GetHistogram("span.inner.flash_ns")->sum(), 11u);
  EXPECT_EQ(reg.GetHistogram("span.inner.total_ns")->sum(), 190u);
}

TEST(TracerTest, AbandonedSpanRecordsNothingButIsCounted) {
  MetricRegistry reg;
  Timeline timeline;
  Tracer tracer(&reg, &timeline);
  Tracer::Kind* lost = tracer.Intern("lost");
  {
    Tracer::Span span = Tracer::Start(lost, 0);
    tracer.Charge(1, 2, 3);
    // Destroyed without End(): the error-path contract.
  }
  EXPECT_FALSE(reg.Lookup("span.lost.total_ns"));
  // The leak is not silent: each abandonment bumps a per-name counter.
  ASSERT_TRUE(reg.Lookup("span.lost.abandoned"));
  EXPECT_EQ(reg.GetCounter("span.lost.abandoned")->value(), 1u);
  {
    Tracer::Span again = Tracer::Start(lost, 10);
  }
  EXPECT_EQ(reg.GetCounter("span.lost.abandoned")->value(), 2u);
  // Ended spans never touch the abandoned counter.
  Tracer::Span ok = Tracer::Start(tracer.Intern("fine"), 0);
  ok.End(5);
  EXPECT_FALSE(reg.Lookup("span.fine.abandoned"));
}

// Interning resolves no instruments: a kind adds registry rows only once a span of it ends
// (five histograms) or is abandoned (the counter alone).
TEST(TracerTest, InternedKindsAddRowsOnlyWhenUsed) {
  MetricRegistry reg;
  Timeline timeline;
  Tracer tracer(&reg, &timeline);
  Tracer::Kind* idle = tracer.Intern("idle");
  EXPECT_EQ(tracer.Intern("idle"), idle);  // Same name, same kind.
  { Tracer::Span never_ended = Tracer::Start(tracer.Intern("dropped"), 0); }
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.Lookup("span.dropped.abandoned"));
  for (const char* row : {"total_ns", "queue_ns", "gc_ns", "flash_ns", "host_ns"}) {
    EXPECT_FALSE(reg.Lookup(std::string("span.dropped.") + row)) << row;
  }
  EXPECT_FALSE(reg.Lookup("span.idle.abandoned"));
  EXPECT_FALSE(reg.Lookup("span.idle.total_ns"));
}

TEST(TracerTest, EndIsIdempotentAndMovedFromHandleInert) {
  MetricRegistry reg;
  Timeline timeline;
  Tracer tracer(&reg, &timeline);
  Tracer::Span a = Tracer::Start(tracer.Intern("op"), 0);
  Tracer::Span b = std::move(a);
  a.End(50);  // NOLINT(bugprone-use-after-move): moved-from must be inert.
  b.End(100);
  b.End(999);  // Idempotent: second End ignored.
  const Histogram* total = reg.GetHistogram("span.op.total_ns");
  EXPECT_EQ(total->count(), 1u);
  EXPECT_EQ(total->sum(), 100u);
  EXPECT_FALSE(reg.Lookup("span.op.abandoned"));
  // A null kind (telemetry detached) yields an inert handle.
  Tracer::Span detached = Tracer::Start(nullptr, 0);
  detached.End(10);
  EXPECT_EQ(total->count(), 1u);
}

// GC interference must be *measured* from plane occupancy, not estimated: a host read queued
// behind a block erase on the same plane attributes that wait to gc_ns.
TEST(FlashTelemetryTest, HostReadBehindEraseChargesGcTime) {
  Telemetry tel;
  FlashDevice flash(SmallFlash());
  flash.AttachTelemetry(&tel, "flash");

  PhysAddr addr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}};
  ASSERT_TRUE(flash.ProgramPage(addr, 0).ok());
  const SimTime t0 = flash.PlaneBusyUntil(ChannelId{0}, PlaneId{0});

  // Start maintenance (an erase of another block on the same plane), then issue a host read
  // while the plane is still busy erasing.
  ASSERT_TRUE(flash.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{1}, t0).ok());
  Tracer::Span span = Tracer::Start(tel.tracer.Intern("probe"), t0);
  Result<SimTime> read = flash.ReadPage(addr, t0);
  ASSERT_TRUE(read.ok());
  span.End(read.value());

  const Histogram* gc = tel.registry.GetHistogram("span.probe.gc_ns");
  ASSERT_NE(gc, nullptr);
  EXPECT_GT(gc->sum(), 0u);
  // The wait was maintenance, not foreground contention.
  EXPECT_EQ(tel.registry.GetHistogram("span.probe.queue_ns")->sum(), 0u);
  EXPECT_GT(tel.registry.GetHistogram("span.probe.flash_ns")->sum(), 0u);
}

// A host read queued behind an earlier *host* program charges queue_ns, not gc_ns.
TEST(FlashTelemetryTest, HostReadBehindHostProgramChargesQueueTime) {
  Telemetry tel;
  FlashDevice flash(SmallFlash());
  flash.AttachTelemetry(&tel, "flash");

  PhysAddr addr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}};
  ASSERT_TRUE(flash.ProgramPage(addr, 0).ok());
  PhysAddr next{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{1}};
  ASSERT_TRUE(flash.ProgramPage(next, 0).ok());  // Plane busy with host work.

  Tracer::Span span = Tracer::Start(tel.tracer.Intern("probe"), 0);
  Result<SimTime> read = flash.ReadPage(addr, 0);
  ASSERT_TRUE(read.ok());
  span.End(read.value());

  EXPECT_GT(tel.registry.GetHistogram("span.probe.queue_ns")->sum(), 0u);
  EXPECT_EQ(tel.registry.GetHistogram("span.probe.gc_ns")->sum(), 0u);
}

// The program path's GC branch: a host program queued behind an erase on the same plane
// attributes that wait to gc_ns.
TEST(FlashTelemetryTest, HostProgramBehindEraseChargesGcTime) {
  Telemetry tel;
  FlashDevice flash(SmallFlash());
  flash.AttachTelemetry(&tel, "flash");

  ASSERT_TRUE(flash.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}}, 0)
                  .ok());
  const SimTime t0 = flash.PlaneBusyUntil(ChannelId{0}, PlaneId{0});
  ASSERT_TRUE(flash.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{1}, t0).ok());
  Tracer::Span span = Tracer::Start(tel.tracer.Intern("probe"), t0);
  Result<SimTime> program =
      flash.ProgramPage(PhysAddr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{1}}, t0);
  ASSERT_TRUE(program.ok());
  span.End(program.value());

  EXPECT_GT(tel.registry.GetHistogram("span.probe.gc_ns")->sum(), 0u);
  EXPECT_EQ(tel.registry.GetHistogram("span.probe.queue_ns")->sum(), 0u);
  const FlashTiming& timing = flash.timing();
  EXPECT_EQ(tel.registry.GetHistogram("span.probe.flash_ns")->sum(),
            timing.channel_xfer + timing.page_program);
}

// Each host flash op is split once: the span's components and the request-path ledger's
// segments come from the same intervals, so for a read and a program queued behind both
// maintenance and earlier host work they agree exactly.
TEST(FlashTelemetryTest, SpanSumsEqualRequestPathSegments) {
  for (const ReqOp op : {ReqOp::kRead, ReqOp::kWrite}) {
    Telemetry tel;
    FlashDevice flash(SmallFlash());
    flash.AttachTelemetry(&tel, "flash");
    tel.reqpath.Enable();
    const PhysAddr page0{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}};
    const PhysAddr page1{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{1}};
    const PhysAddr page2{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{2}};
    ASSERT_TRUE(flash.ProgramPage(page0, 0).ok());
    const SimTime t0 = flash.PlaneBusyUntil(ChannelId{0}, PlaneId{0});
    {
      WriteProvenance::CauseScope gc(&tel.provenance, WriteCause::kDeviceGC, StackLayer::kFtl);
      ASSERT_TRUE(flash.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{1}, t0).ok());
    }
    ASSERT_TRUE(flash.ProgramPage(page1, t0).ok());  // Host work queued behind the erase.

    RequestPathLedger::RequestScope req(&tel.reqpath, RequestContext{0, op}, t0);
    Tracer::Span span = Tracer::Start(tel.tracer.Intern("probe"), t0);
    Result<SimTime> done =
        op == ReqOp::kRead ? flash.ReadPage(page0, t0) : flash.ProgramPage(page2, t0);
    ASSERT_TRUE(done.ok());
    span.End(done.value());
    req.Complete(done.value());

    const auto span_ns = [&](const std::string& component) {
      return tel.registry.GetHistogram("span.probe." + component)->sum();
    };
    const auto seg_ns = [&](PathSegment s) {
      return tel.reqpath.op_totals(op).seg_ns[static_cast<int>(s)];
    };
    SCOPED_TRACE(ReqOpName(op));
    EXPECT_GT(span_ns("gc_ns"), 0u);
    EXPECT_GT(span_ns("queue_ns"), 0u);
    EXPECT_EQ(span_ns("queue_ns"), seg_ns(PathSegment::kDeviceQueue));
    EXPECT_EQ(span_ns("gc_ns"), seg_ns(PathSegment::kGcStall));
    EXPECT_EQ(span_ns("flash_ns"), seg_ns(PathSegment::kFlashBusy));
    EXPECT_EQ(span_ns("total_ns"), tel.reqpath.op_totals(op).latency_ns);
  }
}

TEST(FlashTelemetryTest, ProviderExportsStatsAndWear) {
  Telemetry tel;
  FlashDevice flash(SmallFlash());
  flash.AttachTelemetry(&tel, "flash");
  PhysAddr addr{ChannelId{0}, PlaneId{0}, BlockId{0}, PageId{0}};
  ASSERT_TRUE(flash.ProgramPage(addr, 0).ok());
  ASSERT_TRUE(flash.ReadPage(addr, 0).ok());
  ASSERT_TRUE(flash.EraseBlock(ChannelId{0}, PlaneId{0}, BlockId{0}, 0).ok());

  (void)tel.registry.Snapshot();  // Runs the provider.
  EXPECT_EQ(tel.registry.GetCounter("flash.host_pages_programmed")->value(), 1u);
  EXPECT_EQ(tel.registry.GetCounter("flash.host_pages_read")->value(), 1u);
  EXPECT_EQ(tel.registry.GetCounter("flash.blocks_erased")->value(), 1u);
  EXPECT_GT(tel.registry.GetCounter("flash.host_bus_bytes")->value(), 0u);
  EXPECT_EQ(tel.registry.GetGauge("flash.wear.max_erase_count")->value(), 1.0);
  EXPECT_EQ(tel.registry.GetHistogram("flash.read.latency_ns")->count(), 1u);
  EXPECT_EQ(tel.registry.GetHistogram("flash.program.latency_ns")->count(), 1u);
}

// Runs a fixed write/read workload against a fresh ConventionalSsd and returns the rendered
// JSON-lines dump.
std::string RunSsdAndDump(const char* bench_name) {
  Telemetry tel;
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  ssd.AttachTelemetry(&tel, "conv");
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    Result<SimTime> done = ssd.WriteBlocks(Lba{(i * 37) % ssd.num_blocks()}, 1, t);
    EXPECT_TRUE(done.ok());
    t = done.value();
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    Result<SimTime> done = ssd.ReadBlocks(Lba{(i * 53) % ssd.num_blocks()}, 1, t);
    EXPECT_TRUE(done.ok());
    t = done.value();
  }
  std::string out;
  JsonLinesSink().Render(bench_name, tel.registry.Snapshot(), &out);
  return out;
}

TEST(SinkTest, SameSeedRunsSerializeByteIdentically) {
  const std::string first = RunSsdAndDump("determinism");
  const std::string second = RunSsdAndDump("determinism");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(SinkTest, JsonLinesShapeAndEscaping) {
  MetricRegistry reg;
  reg.GetCounter("a.count")->Set(7);
  reg.GetGauge("b.gauge")->Set(2.5);
  reg.GetHistogram("c.latency_ns")->Record(100);
  std::string out;
  JsonLinesSink().Render("bench \"x\"", reg.Snapshot(), &out);
  // One line per metric, each tagged with the (escaped) bench name.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find("\"bench\":\"bench \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"metric\":\"a.count\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(out.find("\"value\":7"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":1"), std::string::npos);
}

TEST(SinkTest, CsvHasHeaderAndOneRowPerMetric) {
  MetricRegistry reg;
  reg.GetCounter("a")->Set(1);
  reg.GetHistogram("h")->Record(5);
  std::string out;
  CsvSink().Render("b", reg.Snapshot(), &out);
  EXPECT_EQ(out.rfind("bench,metric,kind,value,", 0), 0u);  // Header first.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);   // Header + 2 rows.
}

TEST(SinkTest, JsonEscapeHandlesQuotesBackslashesAndControlChars) {
  // Regression: caller-supplied keys (tenant names, track labels, metric names assembled
  // from them) must never corrupt a JSON stream. Quotes and backslashes get backslash
  // escapes; control characters render as \u00XX; plain text passes through.
  EXPECT_EQ(JsonEscape("plain.metric"), "plain.metric");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape(std::string_view("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\u000abreak\\u0009tab");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
}

TEST(SinkTest, HostileMetricNamesStayValidInJsonAndCsv) {
  MetricRegistry reg;
  reg.GetCounter("tenant \"a\\b\".count")->Set(1);
  reg.GetGauge("line\nbreak.gauge")->Set(2.0);
  std::string json;
  JsonLinesSink().Render("bench\\\"x", reg.Snapshot(), &json);
  // Every raw quote in the output must be a structural quote: unescaped quotes from the
  // metric name would break the line's key/value framing.
  EXPECT_NE(json.find("\"metric\":\"tenant \\\"a\\\\b\\\".count\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"line\\u000abreak.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"bench\\\\\\\"x\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2)
      << "control char leaked into the stream unescaped (extra line break)";

  std::string csv;
  CsvSink().Render("b,1", reg.Snapshot(), &csv);
  // RFC 4180: fields with commas/quotes/newlines are quoted with doubled quotes. The comma
  // in the bench name must not add a column.
  EXPECT_NE(csv.find("\"b,1\""), std::string::npos);
  EXPECT_NE(csv.find("\"tenant \"\"a\\b\"\".count\""), std::string::npos);
}


TEST(AggregateTest, MergedHistogramPercentilesMatchConcatenatedStream) {
  // Three registries record disjoint slices of one sample stream; merging their histograms
  // must reproduce the percentiles of the full stream exactly (bucket counts add — this is
  // what "merge the p99 gauges" can never do).
  MetricRegistry a;
  MetricRegistry b;
  MetricRegistry c;
  Histogram reference;
  Rng rng(99);
  std::vector<MetricRegistry*> regs = {&a, &b, &c};
  std::vector<Histogram*> hists = {a.GetHistogram("lat_ns"), b.GetHistogram("lat_ns"),
                                   c.GetHistogram("lat_ns")};
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t sample = 50 + rng.NextBelow(1u << (5 + i % 14));
    hists[static_cast<std::size_t>(i) % 3]->Record(sample);
    reference.Record(sample);
  }

  Histogram merged;
  ASSERT_EQ(MergeHistogramAcross(regs, "lat_ns", &merged), 3u);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.max(), reference.max());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.Percentile(q), reference.Percentile(q)) << "q=" << q;
  }

  // A registry lacking the name (or holding it as another kind) is skipped, not counted.
  MetricRegistry d;
  d.GetCounter("lat_ns");
  std::vector<MetricRegistry*> with_bad = {&a, &d};
  Histogram partial;
  EXPECT_EQ(MergeHistogramAcross(with_bad, "lat_ns", &partial), 1u);
  EXPECT_EQ(partial.count(), hists[0]->count());
  // Sources were never mutated or grown by the merge.
  EXPECT_EQ(a.size(), 1u);

  // RefreshMergedHistogram is idempotent across repeated snapshots.
  MetricRegistry target;
  ASSERT_EQ(RefreshMergedHistogram(&target, "fleet.lat_ns", regs, "lat_ns"), 3u);
  ASSERT_EQ(RefreshMergedHistogram(&target, "fleet.lat_ns", regs, "lat_ns"), 3u);
  EXPECT_EQ(target.GetHistogram("fleet.lat_ns")->count(), reference.count());

  // SumCounterAcross folds counters the same way.
  a.GetCounter("sheds")->Add(3);
  c.GetCounter("sheds")->Add(9);
  EXPECT_EQ(SumCounterAcross(regs, "sheds"), 12u);
}

}  // namespace
}  // namespace blockhead
