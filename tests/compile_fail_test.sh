#!/usr/bin/env bash
# Compile-fail harness for the strong ID/unit types (registered as the
# strong_id_compile_fail ctest). Proves the type system REJECTS address mixups: each
# EXPECT_FAIL_n case in tests/strong_id_compile_fail.cc must fail to compile, and the file
# with no case defined must compile cleanly (otherwise a broken baseline would make every
# "expected failure" pass vacuously).
#
#   usage: compile_fail_test.sh <source-root> [compiler]

set -u
root="${1:?usage: compile_fail_test.sh <source-root> [compiler]}"
cxx="${2:-${CXX:-c++}}"
src="$root/tests/strong_id_compile_fail.cc"
ncases=9

# -Werror=narrowing mirrors the BLOCKHEAD_WERROR CI build: GCC demotes narrowing inside
# braced constructor calls to a warning by default, but the strict build makes it fatal.
compile() {
  "$cxx" -std=c++20 -Werror=narrowing -fsyntax-only -I "$root" "$@" "$src" 2>/dev/null
}

if ! compile; then
  echo "FAIL: baseline (no EXPECT_FAIL_n defined) does not compile" >&2
  "$cxx" -std=c++20 -fsyntax-only -I "$root" "$src" >&2 || true
  exit 1
fi
echo "ok: baseline compiles"

failures=0
for i in $(seq 1 "$ncases"); do
  if compile "-DEXPECT_FAIL_$i"; then
    echo "FAIL: case $i (EXPECT_FAIL_$i) compiled but must be rejected" >&2
    failures=$((failures + 1))
  else
    echo "ok: case $i rejected by the compiler"
  fi
done

if [[ "$failures" -gt 0 ]]; then
  echo "compile_fail_test: $failures of $ncases mixups were NOT rejected" >&2
  exit 1
fi
echo "compile_fail_test: all $ncases address mixups rejected"
