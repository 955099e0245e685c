#!/usr/bin/env python3
"""Project lint for the blockhead repo.

Enforces invariants that the compiler cannot (or that we want flagged before it does):

  wall-clock     src/ must stay deterministic: no std::chrono clocks, time(), gettimeofday,
                 clock_gettime, localtime/gmtime/strftime, or <chrono>/<ctime> includes.
                 Simulated time (SimTime) is the only clock. One sanctioned exception:
                 src/telemetry/selfprof/ (the host-side self-profiler) may use
                 std::chrono::steady_clock and #include <chrono> — it measures the simulator
                 itself and never feeds wall time back into simulation state. Every other
                 clock (system_clock, time(), ...) stays banned there too.
  cause-scope    Any src/ file (outside src/flash/, which implements the recording) that
                 calls FlashDevice::ProgramPage or ::EraseBlock must open a
                 WriteProvenance::CauseScope, so write-provenance attribution stays
                 conserved. Pass-through layers whose flash ops are host-commanded (the
                 attribution belongs to the command issuer's scope) may opt out with a
                 `lint: provenance-passthrough` comment explaining why.
  naked-address  No raw `uint32_t channel/plane/block/page` or `uint64_t lba/ppa`
                 function parameters outside src/core/strong_id.h: address-like arguments
                 must use the strong ID types so swapped arguments cannot compile. Raw
                 dense-table *indexes* are fine when named `*_index` / `*_offset`.
  fleet-layering src/fleet/ must talk to devices through the BlockDevice host interface and
                 the public maintenance pumps only — no calls to flash/ZNS internals
                 (ProgramPage, EraseBlock, ResetZone, Append, SimpleCopy, ...), no
                 `.flash()` accessor use, and no direct `#include "src/flash/...` so the
                 serving layer cannot grow a dependency on device internals.
  request-context A RequestContext is an identity threaded through one op's call chain, not
                 state: it must be passed as `const RequestContext&` (never by value or
                 mutable reference) and never stored in a member (`..._` fields, or any
                 declaration in a header) — the reqpath ledger copies the fields it needs
                 and is the single sanctioned owner (src/telemetry/reqpath/ is exempt).
  digest-order   Digest/audit code paths (src/telemetry/audit/, tools/digest_bisect*) must
                 not use std::unordered_* containers at all: their iteration order is
                 implementation-defined, and anything that touches digest folding,
                 checkpoint sealing, or dump rendering must stay byte-stable across
                 platforms and standard libraries. Use std::map/std::set, or a vector
                 sorted on an explicit key, instead.
  rng-discipline All randomness in src/ must flow through the run-seeded Rng / ZipfGenerator
                 in src/util/rng.h so runs stay reproducible from a single seed: no rand()
                 or srand(), no std::random_device (nondeterministic hardware entropy), and
                 no raw std::mt19937/std::mt19937_64 construction outside src/util/rng.{h,cc}.
  mutable-static No mutable namespace-scope variables, function-local or class `static` data, or
                 `thread_local` in src/: simulation state lives in objects, so independent
                 stacks (e.g. bench cells run in parallel) share nothing. `const`/`constexpr`
                 data, static functions, static_assert and static_cast are fine.
  self-contained Every header in src/ must compile on its own (include-what-you-use probe:
                 a TU containing only `#include "<header>"`).
  format         No tabs, no trailing whitespace, lines <= 100 columns, final newline.
                 (Fallback formatter checks for machines without clang-format.)

Usage:
  tools/lint.py [--root DIR] [--skip-probe] [files...]

With no file arguments, lints the whole tree (src/, tests/, bench/, tools/, examples/).
Exits 1 if any finding is reported. Findings print as `path:line: [rule] message`.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

FORMAT_DIRS = ("src", "tests", "bench", "tools", "examples")
CXX_EXTENSIONS = (".h", ".cc", ".cpp")
MAX_COLUMNS = 100

# Determinism: the simulation must produce byte-identical output for a given seed, so
# wall-clock access in src/ is banned outright.
WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"), "std::chrono clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\b(localtime|gmtime|strftime|mktime)(_r)?\s*\("), "calendar-time call"),
    (re.compile(r"(^|[^\w.:])std::time\s*\("), "std::time()"),
    (re.compile(r"(^|[^\w.:])time\s*\(\s*(NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"#include\s*<(chrono|ctime|time\.h|sys/time\.h)>"), "wall-clock header"),
]

PROVENANCE_CALL_RE = re.compile(r"[.\->]\s*(ProgramPage|EraseBlock)\s*\(")
PROVENANCE_OPTOUT = "lint: provenance-passthrough"

# Address-like parameter names that must be strong types in signatures. Raw dense-table
# indexes stay allowed under `*_index` / `*_offset` / `*_count` style names.
NAKED_PARAM_RE = re.compile(
    r"\b(?:std::)?uint32_t\s+(channel|plane|block|page|zone|shard)\s*[,)]"
    r"|\b(?:std::)?uint64_t\s+(lba|ppa)\s*[,)]"
)

# Fleet layering: device-internal entry points the serving layer must never call. The fleet
# owns device *objects* (it constructs them, attaches telemetry, and runs their public
# maintenance pumps), but all data-path access goes through the BlockDevice host interface.
# `Append` means zone append here; EventLog::Append (`events.Append`) is unrelated and allowed.
FLEET_DEVICE_INTERNAL_RE = re.compile(
    r"[.\->]\s*(ProgramPage|EraseBlock|CopyPage|ReadPage|SimpleCopy|ResetZone|OpenZone|"
    r"CloseZone|FinishZone|Append|WriteBlocksStream)\s*\("
    r"|[.\->]\s*flash\s*\(\s*\)"
)
FLEET_EVENTLOG_APPEND_RE = re.compile(r"events\s*([.]|->)\s*Append\s*\(")
FLEET_FLASH_INCLUDE_RE = re.compile(r'#include\s*"src/flash/')

# Request-context hygiene: the context rides the call chain for exactly one op. By-value
# parameters invite accidental retention and slicing; members outlive the op. The ledger
# (src/telemetry/reqpath/) holds the one sanctioned copy of the active request's context.
# Digest determinism: audit dumps are compared byte-for-byte across runs, machines, and
# standard libraries, and std::unordered_* iteration order is implementation-defined. The
# audit layer deliberately holds its registries in ordered containers; this rule keeps a
# refactor from quietly reintroducing an unordered one (even a non-iterated unordered member
# is one innocent range-for away from a platform-dependent dump).
DIGEST_ORDER_DIR = os.path.join("src", "telemetry", "audit") + os.sep
DIGEST_ORDER_TOOL_PREFIX = os.path.join("tools", "digest_bisect")
DIGEST_ORDER_RE = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")

# RNG discipline: the simulator's determinism contract is "one seed, one trace". rand()/srand()
# use hidden global state, std::random_device draws hardware entropy, and a std::mt19937
# constructed ad hoc invites seeding from wall clocks or addresses. src/util/rng.{h,cc} is the
# single sanctioned randomness implementation; everything else takes an Rng& (or a seed) from
# its caller.
RNG_ALLOWLIST_FILES = (os.path.join("src", "util", "rng.h"),
                       os.path.join("src", "util", "rng.cc"))
RNG_PATTERNS = [
    (re.compile(r"(^|[^\w:.])s?rand\s*\("), "rand()/srand() use hidden global state"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic hardware entropy"),
    (re.compile(r"\bstd::mt19937(_64)?\b"),
     "raw std::mt19937 seeding bypasses run-seed plumbing"),
]

# Mutable statics: a declaration (type, name, then `=`, `;`, `{` or `[`) that is either at
# column 0 (namespace scope, in this Google-style tree) or carries `static`/`thread_local`.
# A name followed by `(` is a function, so static member functions never match.
MUTABLE_STATIC_RE = re.compile(
    r"^(?P<indent>\s*)(?P<specs>(?:(?:static|thread_local|inline|extern)\s+)*)"
    r"(?P<type>[\w:<>,*&\s]*?[\w>*&])\s*\b(?P<name>(?:\w+::)*\w+)\s*[=;{\[]")
NOT_A_VARIABLE = {"namespace", "class", "struct", "union", "enum", "using", "typedef",
                  "template", "friend", "return", "case", "goto", "delete", "throw"}

REQUEST_CONTEXT_ALLOWLIST_DIR = os.path.join("src", "telemetry", "reqpath") + os.sep
REQUEST_CONTEXT_BYVALUE_RE = re.compile(r"\bRequestContext\s+\w+\s*[,)]")
REQUEST_CONTEXT_REF_RE = re.compile(r"\bRequestContext\s*&")
REQUEST_CONTEXT_HEADER_DECL_RE = re.compile(r"\bRequestContext\s+\w+\s*(;|=)")
REQUEST_CONTEXT_MEMBER_RE = re.compile(r"\bRequestContext\s+\w+_\s*(;|=|\{)")


def is_comment_or_string(line, pos):
    """Cheap check: is `pos` inside a // comment or a string literal on this line?"""
    comment = line.find("//")
    if 0 <= comment <= pos:
        return True
    return line.count('"', 0, pos) % 2 == 1


# The one place wall-clock access is legal: the self-profiler measures the simulator itself
# (host CPU cost per simulated op) and never feeds wall time back into simulation state.
# Only the monotonic steady_clock and the <chrono> header are allowed there; calendar clocks
# (system_clock, time(), localtime, ...) stay banned even in selfprof.
WALL_CLOCK_ALLOWLIST_DIR = os.path.join("src", "telemetry", "selfprof") + os.sep
WALL_CLOCK_ALLOWED_RE = re.compile(
    r"std::chrono::steady_clock|#include\s*<chrono>")


def check_wall_clock(path, lines):
    if not path.startswith("src" + os.sep):
        return
    allowlisted = path.startswith(WALL_CLOCK_ALLOWLIST_DIR)
    for i, line in enumerate(lines, 1):
        for pattern, label in WALL_CLOCK_PATTERNS:
            m = pattern.search(line)
            if m and not is_comment_or_string(line, m.start()):
                if allowlisted and WALL_CLOCK_ALLOWED_RE.match(line, m.start()):
                    continue
                yield (path, i, "wall-clock", f"{label} breaks simulation determinism; "
                       "use SimTime")


def check_cause_scope(path, lines):
    if not path.startswith("src" + os.sep) or path.startswith(os.path.join("src", "flash")):
        return
    if not path.endswith(".cc"):
        return
    text = "\n".join(lines)
    if PROVENANCE_OPTOUT in text:
        return
    if "CauseScope" in text:
        return
    for i, line in enumerate(lines, 1):
        m = PROVENANCE_CALL_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            yield (path, i, "cause-scope",
                   f"{m.group(1)}() caller must open a WriteProvenance::CauseScope (or "
                   f"document pass-through attribution with `{PROVENANCE_OPTOUT}`)")


def check_naked_address_params(path, lines):
    if not path.startswith("src" + os.sep):
        return
    if path == os.path.join("src", "core", "strong_id.h"):
        return
    for i, line in enumerate(lines, 1):
        for m in NAKED_PARAM_RE.finditer(line):
            if is_comment_or_string(line, m.start()):
                continue
            name = m.group(1) or m.group(2)
            strong = {"channel": "ChannelId", "plane": "PlaneId", "block": "BlockId",
                      "page": "PageId", "zone": "ZoneId", "shard": "ShardId",
                      "lba": "Lba", "ppa": "Ppa"}[name]
            yield (path, i, "naked-address",
                   f"raw integer parameter `{name}` — use {strong} (src/core/strong_id.h)")


def check_fleet_layering(path, lines):
    if not path.startswith(os.path.join("src", "fleet")):
        return
    for i, line in enumerate(lines, 1):
        inc = FLEET_FLASH_INCLUDE_RE.search(line)
        if inc and not is_comment_or_string(line, inc.start()):
            yield (path, i, "fleet-layering",
                   "src/fleet must not include flash internals directly; go through the "
                   "BlockDevice host interface headers")
        for m in FLEET_DEVICE_INTERNAL_RE.finditer(line):
            if is_comment_or_string(line, m.start()):
                continue
            if m.group(1) == "Append" and FLEET_EVENTLOG_APPEND_RE.search(line):
                continue  # EventLog::Append is telemetry, not a zone append.
            what = m.group(1) or "flash()"
            yield (path, i, "fleet-layering",
                   f"src/fleet calls device internal `{what}` — the fleet must use the "
                   "BlockDevice host interface (ReadBlocks/WriteBlocks/TrimBlocks) and "
                   "public maintenance pumps only")


def check_digest_order(path, lines):
    if not (path.startswith(DIGEST_ORDER_DIR)
            or path.startswith(DIGEST_ORDER_TOOL_PREFIX)):
        return
    for i, line in enumerate(lines, 1):
        m = DIGEST_ORDER_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            yield (path, i, "digest-order",
                   f"std::unordered_{m.group(1)} in a digest/audit code path — iteration "
                   "order is implementation-defined and would break byte-stable digest "
                   "dumps; use std::map/std::set or sort on an explicit key")


def check_rng_discipline(path, lines):
    if not path.startswith("src" + os.sep) or path in RNG_ALLOWLIST_FILES:
        return
    for i, line in enumerate(lines, 1):
        for pattern, why in RNG_PATTERNS:
            m = pattern.search(line)
            if m and not is_comment_or_string(line, m.start()):
                yield (path, i, "rng-discipline",
                       f"{why}; use the run-seeded Rng/ZipfGenerator (src/util/rng.h)")


def check_mutable_static(path, lines):
    if not path.startswith("src" + os.sep):
        return
    for i, line in enumerate(lines, 1):
        m = MUTABLE_STATIC_RE.match(line)
        if not m or m.group("type").split()[0] in NOT_A_VARIABLE:
            continue
        words = set(re.findall(r"\w+", m.group("specs") + m.group("type")))
        if words & {"const", "constexpr"}:
            continue
        if m.group("indent") and not words & {"static", "thread_local"}:
            continue  # An ordinary member or local.
        yield (path, i, "mutable-static",
               f"mutable static `{m.group('name')}` is state shared by every stack in the "
               "process; make it const/constexpr or move it into an object")


def check_request_context(path, lines):
    if not path.startswith("src" + os.sep):
        return
    if path.startswith(REQUEST_CONTEXT_ALLOWLIST_DIR):
        return  # The ledger itself owns the active request's copy.
    header = path.endswith(".h")
    for i, line in enumerate(lines, 1):
        m = REQUEST_CONTEXT_BYVALUE_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            yield (path, i, "request-context",
                   "RequestContext parameter must be `const RequestContext&` — by-value "
                   "copies invite retention past the op")
        for m in REQUEST_CONTEXT_REF_RE.finditer(line):
            if is_comment_or_string(line, m.start()):
                continue
            if not line[:m.start()].rstrip().endswith("const"):
                yield (path, i, "request-context",
                       "RequestContext must be passed by const reference, not mutable "
                       "reference")
        member = (REQUEST_CONTEXT_HEADER_DECL_RE.search(line) if header
                  else REQUEST_CONTEXT_MEMBER_RE.search(line))
        if member and not is_comment_or_string(line, member.start()):
            yield (path, i, "request-context",
                   "RequestContext must not be stored past op completion; copy the needed "
                   "fields instead (only src/telemetry/reqpath/ may hold one)")


def check_format(path, lines, raw_text):
    for i, line in enumerate(lines, 1):
        if "\t" in line:
            yield (path, i, "format", "tab character (use spaces)")
        if line != line.rstrip():
            yield (path, i, "format", "trailing whitespace")
        if len(line) > MAX_COLUMNS:
            yield (path, i, "format", f"line is {len(line)} columns (max {MAX_COLUMNS})")
    if raw_text and not raw_text.endswith("\n"):
        yield (path, len(lines), "format", "missing final newline")


def check_headers_self_contained(root, headers, compiler):
    """Probe-compiles each header alone; a header that needs prior includes fails."""
    findings = []
    with tempfile.TemporaryDirectory() as tmp:
        for header in headers:
            probe = os.path.join(tmp, "probe.cc")
            with open(probe, "w") as f:
                f.write(f'#include "{header}"\n')
            result = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only", "-I", root, probe],
                capture_output=True, text=True)
            if result.returncode != 0:
                first = result.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                findings.append((header, 1, "self-contained",
                                 f"header does not compile alone: {detail}"))
    return findings


def iter_files(root, explicit):
    if explicit:
        for path in explicit:
            yield os.path.relpath(path, root) if os.path.isabs(path) else path
        return
    for base in FORMAT_DIRS:
        base_dir = os.path.join(root, base)
        if not os.path.isdir(base_dir):
            continue
        for dirpath, _, names in os.walk(base_dir):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS) or name.endswith((".py", ".sh")):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def lint_file(root, rel_path):
    full = os.path.join(root, rel_path)
    try:
        with open(full, encoding="utf-8") as f:
            raw_text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        return [(rel_path, 1, "io", str(err))]
    lines = raw_text.splitlines()
    findings = []
    findings.extend(check_format(rel_path, lines, raw_text))
    if rel_path.endswith(CXX_EXTENSIONS):
        findings.extend(check_wall_clock(rel_path, lines))
        findings.extend(check_cause_scope(rel_path, lines))
        findings.extend(check_naked_address_params(rel_path, lines))
        findings.extend(check_fleet_layering(rel_path, lines))
        findings.extend(check_digest_order(rel_path, lines))
        findings.extend(check_rng_discipline(rel_path, lines))
        findings.extend(check_request_context(rel_path, lines))
        findings.extend(check_mutable_static(rel_path, lines))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repository root (default: parent of tools/)")
    parser.add_argument("--skip-probe", action="store_true",
                        help="skip the header self-containment probe compile")
    parser.add_argument("--compiler", default=os.environ.get("CXX", "c++"),
                        help="compiler for the header probe (default: $CXX or c++)")
    parser.add_argument("files", nargs="*", help="lint only these files")
    args = parser.parse_args(argv)

    findings = []
    for rel_path in iter_files(args.root, args.files):
        findings.extend(lint_file(args.root, rel_path))

    if not args.skip_probe and not args.files:
        if shutil.which(args.compiler):
            headers = [p for p in iter_files(args.root, None)
                       if p.startswith("src" + os.sep) and p.endswith(".h")]
            findings.extend(check_headers_self_contained(args.root, headers, args.compiler))
        else:
            print(f"lint.py: note: compiler `{args.compiler}` not found; "
                  "skipping header probe", file=sys.stderr)

    findings.sort()
    for path, line, rule, message in findings:
        print(f"{path}:{line}: [{rule}] {message}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
