#!/usr/bin/env bash
# Link-time reachability guard: fails on each strong bunshin:: function in
# libbunshin.a that no shipped executable links.
#
# Every non-test executable of the build (tools, examples, bench harnesses)
# and the perfbench driver is relinked against the whole library with
# --gc-sections. A function whose section every one of those links discards
# is called only by tests, or by nothing. Each function named in
# tools/symbol_reachability.allow is passed to the linker as a root, so the
# functions it calls need no entry of their own.
#
# The build must keep every function out of line, one per section, and must
# not build the tests:
#
#   $ cmake -B build-reach -S . -DBUNSHIN_BUILD_TESTS=OFF -DCMAKE_BUILD_TYPE=None \
#       -DCMAKE_CXX_FLAGS="-O1 -fno-inline -ffunction-sections"
#   $ cmake --build build-reach -j
#   $ tools/symbol_reachability.sh build-reach
#
# -O1 rather than -O2: -O2's interprocedural passes call specialised local
# clones (.constprop, .isra) in place of a global function, which would then
# read as unreached. The link cannot see inline (header-only) code;
# src_reachability_test checks headers.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

fail() {
  echo "symbol_reachability: $*" >&2
  exit 2
}

[ $# -eq 1 ] || fail "usage: $0 <build-dir>"
BUILD_DIR="$(cd "$1" && pwd)"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOWLIST="$ROOT/tools/symbol_reachability.allow"
LIB="$BUILD_DIR/libbunshin.a"
CACHE="$BUILD_DIR/CMakeCache.txt"
[ -f "$CACHE" ] || fail "$BUILD_DIR is not a CMake build directory"
[ -f "$LIB" ] || fail "$LIB not built"

cache_value() { sed -n "s/^$1:[A-Z]*=//p" "$CACHE"; }

CXX="$(cache_value CMAKE_CXX_COMPILER)"
BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)"
CXXFLAGS="$(cache_value CMAKE_CXX_FLAGS)"
if [ -n "$BUILD_TYPE" ]; then
  CXXFLAGS="$CXXFLAGS $(cache_value "CMAKE_CXX_FLAGS_${BUILD_TYPE^^}")"
fi
LDFLAGS="$(cache_value CMAKE_EXE_LINKER_FLAGS)"

[ "$(cache_value BUNSHIN_BUILD_TESTS)" = OFF ] || fail "configure with -DBUNSHIN_BUILD_TESTS=OFF"
for flag in -fno-inline -ffunction-sections; do
  [[ " $CXXFLAGS " == *" $flag "* ]] || fail "the build's flags lack $flag (see the header of $0)"
done
OPT="$(grep -o -- '-O[0-9sgz]*' <<<"$CXXFLAGS" | tail -n 1 || true)"
case "$OPT" in
  -O0 | -O1 | -O) ;;
  *) fail "the build optimises at ${OPT:-its default}; -O1 is needed (see the header of $0)" ;;
esac

WORK="$BUILD_DIR/symbol_reachability"
rm -rf "$WORK"
mkdir -p "$WORK/perfbench" "$WORK/links"
JOBS="$(nproc 2>/dev/null || echo 2)"

# The perfbench driver is built by its own package; compile its sources with
# this build's flags (they are only read, nothing is written next to them).
export CXX CXXFLAGS ROOT WORK
find "$ROOT/perfbench/src" -name '*.cc' -print0 |
  xargs -0 -P "$JOBS" -I{} sh -c \
    '"$CXX" -std=c++20 $CXXFLAGS -I"$ROOT" -c "$1" -o "$WORK/perfbench/$(basename "$1").o"' _ {}

# Global (strong) functions of the library, one line each:
# "<section> <mangled> <demangled>".
objdump -t "$LIB" |
  awk '$2 == "g" && $3 == "F" && $4 ~ /^\.text\./ { print $4, $NF }' |
  sort -u >"$WORK/functions.raw"
cut -d' ' -f2 "$WORK/functions.raw" | c++filt >"$WORK/functions.demangled"
paste -d' ' "$WORK/functions.raw" "$WORK/functions.demangled" |
  awk '{ name = $0; sub(/^[^ ]+ [^ ]+ /, "", name) } name ~ /^bunshin::/' \
    >"$WORK/functions"

# The allowlist: "<function> # <reason>" per line, where <function> is a
# demangled name with its parameter list. Every entry must name a library
# function and give a reason.
ROOTS=()
ALLOWED="$WORK/allowed"
: >"$ALLOWED"
while IFS= read -r line || [ -n "$line" ]; do
  [[ "$line" =~ ^[[:space:]]*(#|$) ]] && continue
  name="${line%%#*}"
  name="$(sed 's/[[:space:]]*$//' <<<"$name")"
  reason="${line#*#}"
  [[ "$line" == *"#"* && "$reason" =~ [^[:space:]] ]] ||
    fail "allowlist entry without a reason: $line"
  mangled="$(awk -v n="$name" '{ d = $0; sub(/^[^ ]+ [^ ]+ /, "", d) } d == n { print $2 }' \
    "$WORK/functions")"
  [ -n "$mangled" ] || fail "allowlist entry names no function in libbunshin.a: $name"
  ROOTS+=("-Wl,--undefined=$mangled")
  echo "$name" >>"$ALLOWED"
done <"$ALLOWLIST"

# Relink each shipped executable and record the library sections it drops.
link_one() {
  local name="$1"
  shift
  if ! "$CXX" -o "$WORK/links/$name" "$@" -Wl,--whole-archive "$LIB" -Wl,--no-whole-archive \
    -Wl,--gc-sections -Wl,--print-gc-sections "${ROOTS[@]}" $LDFLAGS -pthread \
    2>"$WORK/links/$name.log"; then
    cat "$WORK/links/$name.log" >&2
    fail "relinking $name failed"
  fi
  sed -n "s/.*removing unused section '\(\.text\.[^']*\)' in file '.*libbunshin\.a(.*)'.*/\1/p" \
    "$WORK/links/$name.log" | sort -u >"$WORK/links/$name.dropped"
  # Every whole-archive link drops some library code; an empty list means
  # the linker's report was not understood, which must not read as a pass.
  [ -s "$WORK/links/$name.dropped" ] ||
    fail "no discarded sections parsed from relinking $name (GNU ld's report format expected)"
  mv "$WORK/links/$name.dropped" "$WORK/links/$name.gc"
  rm -f "$WORK/links/$name" "$WORK/links/$name.log"
}

LINKS=0
for dir in "$BUILD_DIR"/CMakeFiles/*.dir; do
  target="$(basename "$dir" .dir)"
  [ "$target" = bunshin ] && continue
  mapfile -t objects < <(find "$dir" -name '*.o' | sort)
  [ ${#objects[@]} -gt 0 ] || continue
  link_one "$target" "${objects[@]}" &
  LINKS=$((LINKS + 1))
  if [ $((LINKS % JOBS)) -eq 0 ]; then wait; fi
done
link_one perfbench_driver "$WORK"/perfbench/*.o &
LINKS=$((LINKS + 1))
wait
[ "$(find "$WORK/links" -name '*.gc' | wc -l)" -eq "$LINKS" ] || fail "a relink failed"

# A section every link dropped holds a function no shipped executable calls.
set -- "$WORK"/links/*.gc
cp "$1" "$WORK/unreached.sections"
for gc in "$@"; do
  comm -12 "$WORK/unreached.sections" "$gc" >"$WORK/next"
  mv "$WORK/next" "$WORK/unreached.sections"
done
awk 'NR == FNR { dropped[$1] = 1; next }
     $1 in dropped { name = $0; sub(/^[^ ]+ [^ ]+ /, "", name); print name }' \
  "$WORK/unreached.sections" "$WORK/functions" | sort -u >"$WORK/unreached"

COUNT="$(wc -l <"$WORK/unreached")"
if [ "$COUNT" -gt 0 ]; then
  echo "symbol_reachability: $COUNT library function(s) that no shipped executable links" \
    "($LINKS links):" >&2
  sed 's/^/  /' "$WORK/unreached" >&2
  echo "Delete each, move it into tests/, or allowlist it with a reason in" \
    "tools/symbol_reachability.allow." >&2
  exit 1
fi
echo "symbol_reachability: every library function is linked by a shipped executable" \
  "($LINKS links, $(wc -l <"$ALLOWED") allowlisted)"
