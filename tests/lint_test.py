#!/usr/bin/env python3
"""Unit tests for tools/lint.py (registered as the lint_rules ctest).

Each rule is exercised directly on small in-memory fixtures: one snippet that must trigger
the rule and a nearby negative that must not (the opt-outs and naming conventions are part
of the contract). The header self-containment probe needs a compiler and is covered by
running lint.py itself in ci.sh --lint; here the probe is skipped and the final test
asserts the committed tree passes its own lint.
"""

import os
import pathlib
import sys
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint  # noqa: E402


def findings_of(rule_fn, path, text, *extra):
    return list(rule_fn(path, text.splitlines(), *extra))


class WallClockRuleTest(unittest.TestCase):
    def test_flags_system_clock(self):
        out = findings_of(
            lint.check_wall_clock,
            os.path.join("src", "ftl", "x.cc"),
            "auto t = std::chrono::system_clock::now();\n",
        )
        self.assertEqual(len(out), 1)
        self.assertEqual(out[0][2], "wall-clock")

    def test_flags_time_header_include(self):
        out = findings_of(
            lint.check_wall_clock, os.path.join("src", "ftl", "x.cc"), "#include <ctime>\n")
        self.assertEqual(len(out), 1)

    def test_ignores_simtime_and_comment_mentions(self):
        clean = "SimTime t{0};\n// runs synchronously with the event loop\n"
        self.assertEqual(
            findings_of(lint.check_wall_clock, os.path.join("src", "ftl", "x.cc"), clean), [])

    def test_ignores_files_outside_src(self):
        text = "auto t = std::chrono::steady_clock::now();\n"
        self.assertEqual(
            findings_of(lint.check_wall_clock, os.path.join("bench", "x.cc"), text), [])

    SELFPROF = os.path.join("src", "telemetry", "selfprof", "self_profiler.cc")

    def test_selfprof_may_use_steady_clock_and_chrono(self):
        text = ("#include <chrono>\n"
                "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(findings_of(lint.check_wall_clock, self.SELFPROF, text), [])

    def test_selfprof_calendar_clocks_still_banned(self):
        text = ("#include <ctime>\n"
                "auto t = std::chrono::system_clock::now();\n"
                "auto h = std::chrono::high_resolution_clock::now();\n"
                "time(nullptr);\n")
        out = findings_of(lint.check_wall_clock, self.SELFPROF, text)
        self.assertEqual(len(out), 4)
        self.assertTrue(all(f[2] == "wall-clock" for f in out))

    def test_steady_clock_outside_selfprof_still_banned(self):
        text = "auto t = std::chrono::steady_clock::now();\n"
        out = findings_of(
            lint.check_wall_clock, os.path.join("src", "telemetry", "timeline.cc"), text)
        self.assertEqual(len(out), 1)


class CauseScopeRuleTest(unittest.TestCase):
    PROGRAM = "dev->ProgramPage(addr, now);\n"

    def test_flags_program_without_scope(self):
        out = findings_of(lint.check_cause_scope, os.path.join("src", "kv", "x.cc"),
                          self.PROGRAM)
        self.assertEqual(len(out), 1)
        self.assertEqual(out[0][2], "cause-scope")

    def test_scope_in_file_satisfies_rule(self):
        text = "WriteProvenance::CauseScope scope(WriteCause::kLsmFlush);\n" + self.PROGRAM
        self.assertEqual(
            findings_of(lint.check_cause_scope, os.path.join("src", "kv", "x.cc"), text), [])

    def test_passthrough_optout(self):
        text = "// lint: provenance-passthrough -- host-commanded op\n" + self.PROGRAM
        self.assertEqual(
            findings_of(lint.check_cause_scope, os.path.join("src", "kv", "x.cc"), text), [])

    def test_flash_layer_exempt(self):
        self.assertEqual(
            findings_of(lint.check_cause_scope, os.path.join("src", "flash", "x.cc"),
                        self.PROGRAM), [])

    def test_headers_exempt(self):
        self.assertEqual(
            findings_of(lint.check_cause_scope, os.path.join("src", "kv", "x.h"),
                        self.PROGRAM), [])


class NakedAddressRuleTest(unittest.TestCase):
    def test_flags_naked_channel_and_block_params(self):
        text = "void Erase(std::uint32_t channel, std::uint32_t block);\n"
        out = findings_of(lint.check_naked_address_params,
                          os.path.join("src", "flash", "x.h"), text)
        self.assertEqual(len(out), 2)
        self.assertIn("ChannelId", out[0][3])
        self.assertIn("BlockId", out[1][3])

    def test_flags_naked_lba_param(self):
        text = "Result<SimTime> Read(std::uint64_t lba, SimTime now);\n"
        out = findings_of(lint.check_naked_address_params,
                          os.path.join("src", "zns", "x.h"), text)
        self.assertEqual(len(out), 1)
        self.assertIn("Lba", out[0][3])

    def test_strong_types_and_index_names_pass(self):
        text = ("void Erase(ChannelId channel, BlockId block);\n"
                "void Drop(std::uint32_t zone_index);\n")
        self.assertEqual(
            findings_of(lint.check_naked_address_params,
                        os.path.join("src", "flash", "x.h"), text), [])

    def test_strong_id_header_exempt(self):
        text = "void F(std::uint32_t channel);\n"
        self.assertEqual(
            findings_of(lint.check_naked_address_params,
                        os.path.join("src", "core", "strong_id.h"), text), [])


class FleetLayeringRuleTest(unittest.TestCase):
    def test_flags_device_internal_calls(self):
        text = ("zns->ResetZone(ZoneId{3}, now);\n"
                "dev.flash().stats();\n")
        out = findings_of(lint.check_fleet_layering,
                          os.path.join("src", "fleet", "x.cc"), text)
        self.assertEqual(len(out), 2)
        self.assertTrue(all(f[2] == "fleet-layering" for f in out))
        self.assertIn("ResetZone", out[0][3])
        self.assertIn("flash()", out[1][3])

    def test_flags_direct_flash_include(self):
        text = '#include "src/flash/flash_device.h"\n'
        out = findings_of(lint.check_fleet_layering,
                          os.path.join("src", "fleet", "x.h"), text)
        self.assertEqual(len(out), 1)
        self.assertIn("include", out[0][3])

    def test_host_interface_and_pumps_pass(self):
        text = ("dev->block->WriteBlocks(lba, count, issue, data);\n"
                "dev->conv->RunBackgroundGc(now, 1);\n"
                "dev->hostftl->Pump(now, false, 1);\n"
                "dev->conv->AttachTelemetry(telemetry, \"dev\");\n")
        self.assertEqual(
            findings_of(lint.check_fleet_layering,
                        os.path.join("src", "fleet", "x.cc"), text), [])

    def test_eventlog_append_is_not_zone_append(self):
        text = "telemetry_->events.Append(now, TimelineEventType::kShardMigration, p, d);\n"
        self.assertEqual(
            findings_of(lint.check_fleet_layering,
                        os.path.join("src", "fleet", "x.cc"), text), [])

    def test_other_layers_exempt(self):
        text = "zns->ResetZone(ZoneId{3}, now);\n"
        self.assertEqual(
            findings_of(lint.check_fleet_layering,
                        os.path.join("src", "hostftl", "x.cc"), text), [])


class RngDisciplineRuleTest(unittest.TestCase):
    def test_flags_rand_and_srand(self):
        text = "int r = rand();\nsrand(42);\n"
        out = findings_of(lint.check_rng_discipline,
                          os.path.join("src", "workload", "x.cc"), text)
        self.assertEqual(len(out), 2)
        self.assertTrue(all(f[2] == "rng-discipline" for f in out))
        self.assertIn("hidden global state", out[0][3])

    def test_flags_random_device(self):
        text = "std::random_device rd;\n"
        out = findings_of(lint.check_rng_discipline,
                          os.path.join("src", "kv", "x.cc"), text)
        self.assertEqual(len(out), 1)
        self.assertIn("hardware entropy", out[0][3])

    def test_flags_raw_mt19937_seeding(self):
        text = ("std::mt19937 gen{std::random_device{}()};\n"
                "std::mt19937_64 gen64(seed);\n")
        out = findings_of(lint.check_rng_discipline,
                          os.path.join("src", "ftl", "x.cc"), text)
        self.assertEqual(len(out), 3)  # mt19937 + random_device + mt19937_64

    def test_sanctioned_rng_and_lookalikes_pass(self):
        text = ("Rng rng(config_.seed);\n"
                "std::uint64_t r = rng.Next();\n"
                "double o = zipf_.operand();\n"  # `rand(` inside an identifier
                "// never call rand() here\n")
        self.assertEqual(
            findings_of(lint.check_rng_discipline,
                        os.path.join("src", "workload", "x.cc"), text), [])

    def test_rng_implementation_itself_exempt(self):
        text = "std::mt19937_64 reference(seed);  // cross-check in comments\n"
        for name in ("rng.h", "rng.cc"):
            self.assertEqual(
                findings_of(lint.check_rng_discipline,
                            os.path.join("src", "util", name), text), [])

    def test_files_outside_src_exempt(self):
        text = "int r = rand();\n"
        self.assertEqual(
            findings_of(lint.check_rng_discipline,
                        os.path.join("tools", "x.cc"), text), [])


class RequestContextRuleTest(unittest.TestCase):
    def test_flags_byvalue_parameter(self):
        text = "Status Admit(ShardId shard, SimTime now, RequestContext ctx);\n"
        out = findings_of(lint.check_request_context,
                          os.path.join("src", "fleet", "x.h"), text)
        self.assertEqual(len(out), 1)
        self.assertEqual(out[0][2], "request-context")
        self.assertIn("const RequestContext&", out[0][3])

    def test_flags_mutable_reference(self):
        text = "void Route(RequestContext& ctx);\n"
        out = findings_of(lint.check_request_context,
                          os.path.join("src", "fleet", "x.cc"), text)
        self.assertEqual(len(out), 1)
        self.assertIn("const reference", out[0][3])

    def test_flags_member_storage(self):
        header = "  RequestContext last_ctx_;\n"
        out = findings_of(lint.check_request_context,
                          os.path.join("src", "fleet", "x.h"), header)
        self.assertEqual(len(out), 1)
        self.assertIn("stored", out[0][3])
        cc_member = "RequestContext saved_ctx_ = {};\n"
        out = findings_of(lint.check_request_context,
                          os.path.join("src", "queue", "x.cc"), cc_member)
        self.assertEqual(len(out), 1)

    def test_const_ref_and_temporaries_pass(self):
        text = ("Status Admit(ShardId shard, SimTime now, const RequestContext& ctx = {});\n"
                "RequestPathLedger::RequestScope scope(ledger,\n"
                "    RequestContext{config_.tenant, ReqOp::kWrite}, now);\n"
                "const RequestContext ctx{options.tenant, op};\n")
        self.assertEqual(
            findings_of(lint.check_request_context,
                        os.path.join("src", "fleet", "x.cc"), text), [])

    def test_reqpath_ledger_itself_exempt(self):
        text = "  RequestContext ctx_;\n"
        self.assertEqual(
            findings_of(lint.check_request_context,
                        os.path.join("src", "telemetry", "reqpath", "request_path.h"),
                        text), [])

    def test_files_outside_src_exempt(self):
        text = "RequestContext ctx;\nvoid F(RequestContext ctx);\n"
        self.assertEqual(
            findings_of(lint.check_request_context,
                        os.path.join("tests", "x.cc"), text), [])


class MutableStaticRuleTest(unittest.TestCase):
    CC = os.path.join("src", "sched", "x.cc")

    def test_flags_each_mutable_form(self):
        forms = ["std::uint64_t g_ops = 0;",             # namespace scope
                 "static std::uint64_t g_seeded = 0;",   # namespace-scope static
                 "Telemetry* g_sink = nullptr;",
                 "std::map<std::string, int> g_names;",
                 "int Histogram::instances_ = 0;",       # out-of-line class static
                 "  static std::string scratch;",        # function-local static
                 "  static int calls = 0;",
                 "  static inline int instances_ = 0;",  # static class data member
                 "  thread_local Rng rng{1};",
                 "thread_local int depth;"]
        for form in forms:
            out = findings_of(lint.check_mutable_static, self.CC, form + "\n")
            self.assertEqual(len(out), 1, form)
            self.assertEqual(out[0][2], "mutable-static")

    def test_static_member_functions_pass(self):
        text = ("  static std::uint64_t MemtableEntryHash(std::string_view key,\n"
                "                                         std::uint64_t seq);\n"
                "  static std::uint64_t FileEntryHash(const FileMeta& file) {\n"
                "  static Status Ok() { return Status(); }\n"
                "static void Helper(int x);\n")
        self.assertEqual(findings_of(lint.check_mutable_static, self.CC, text), [])

    def test_const_asserts_casts_and_non_declarations_pass(self):
        text = ("constexpr int kLimit = 4;\n"
                "const char* const kName = \"x\";\n"
                "  static constexpr std::uint32_t kNoZone = ~0U;\n"
                "  static const std::string kEmpty;\n"
                "  static_assert(sizeof(Rep) == 8);\n"
                "  return static_cast<int>(x);\n"
                "namespace blockhead {\n"
                "using Lpn = std::uint64_t;\n"
                "class FlashDevice;\n"
                "  int member_ = 0;\n"
                "Status Foo(int x);\n")
        self.assertEqual(findings_of(lint.check_mutable_static, self.CC, text), [])

    def test_comment_and_string_mentions_pass(self):
        text = ("// static int g_hits = 0; would be shared by every stack\n"
                "  Log(\"static int hits = 0;\");\n")
        self.assertEqual(findings_of(lint.check_mutable_static, self.CC, text), [])

    def test_files_outside_src_exempt(self):
        text = "static int g_hits = 0;\n"
        self.assertEqual(
            findings_of(lint.check_mutable_static, os.path.join("bench", "x.cc"), text), [])


class DigestOrderRuleTest(unittest.TestCase):
    AUDIT_CC = os.path.join("src", "telemetry", "audit", "state_digest.cc")

    def test_flags_unordered_map_in_audit_layer(self):
        text = "std::unordered_map<std::string, DigestValue> subsystems_;\n"
        out = findings_of(lint.check_digest_order, self.AUDIT_CC, text)
        self.assertEqual(len(out), 1)
        self.assertEqual(out[0][2], "digest-order")
        self.assertIn("std::unordered_map", out[0][3])

    def test_flags_unordered_set_in_bisect_tool(self):
        text = "std::unordered_set<std::uint64_t> seen;\n"
        out = findings_of(lint.check_digest_order,
                          os.path.join("tools", "digest_bisect.cc"), text)
        self.assertEqual(len(out), 1)
        self.assertEqual(out[0][2], "digest-order")

    def test_ordered_containers_pass(self):
        text = ("std::map<std::string, DigestValue> subsystems_;\n"
                "std::vector<Row> rows;  // sorted by (epoch, name) before rendering\n")
        self.assertEqual(findings_of(lint.check_digest_order, self.AUDIT_CC, text), [])

    def test_comment_mentions_pass(self):
        text = "// never std::unordered_map here: dump order must be byte-stable\n"
        self.assertEqual(findings_of(lint.check_digest_order, self.AUDIT_CC, text), [])

    def test_other_code_paths_exempt(self):
        text = "std::unordered_map<std::uint64_t, Location> index_;\n"
        self.assertEqual(
            findings_of(lint.check_digest_order,
                        os.path.join("src", "cache", "flash_cache.h"), text), [])


class FormatRuleTest(unittest.TestCase):
    def test_flags_tabs_trailing_ws_long_lines(self):
        text = "\tint x;\nint y;  \n" + "z" * 101 + "\n"
        out = findings_of(lint.check_format, os.path.join("src", "core", "x.h"), text, text)
        self.assertEqual(sorted(f[3].split(" ")[0] for f in out),
                         ["line", "tab", "trailing"])

    def test_missing_final_newline(self):
        out = findings_of(lint.check_format, os.path.join("src", "core", "x.h"),
                          "int x;", "int x;")
        self.assertEqual(len(out), 1)
        self.assertIn("newline", out[0][3])

    def test_clean_file_passes(self):
        self.assertEqual(
            findings_of(lint.check_format, os.path.join("src", "core", "x.h"),
                        "int x;\n", "int x;\n"), [])


class CommentStringHelperTest(unittest.TestCase):
    def test_comment_and_string_are_masked(self):
        self.assertTrue(lint.is_comment_or_string("// std::chrono::system_clock", 10))
        self.assertTrue(lint.is_comment_or_string('auto s = "system_clock here";', 12))
        self.assertFalse(lint.is_comment_or_string("auto t = my_clock();", 10))


class SelfScanTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        """The committed tree must pass its own lint (sans compiler probe)."""
        rc = lint.main(["--root", str(REPO_ROOT), "--skip-probe"])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
