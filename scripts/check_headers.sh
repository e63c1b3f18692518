#!/usr/bin/env bash
# Verify that every public header under src/ is self-contained: each must
# compile on its own as the first include of a translation unit. Every
# header gets its own translation unit, and they compile in parallel
# (one job per core); every failure is listed, in path order.
set -u
cd "$(dirname "$0")/.."
export CXX="${CXX:-c++}"
tmp="$(mktemp -d)"
export tmp
trap 'rm -rf "$tmp"' EXIT

# Checks one header; leaves <id>.ok on success, <id>.fail on failure.
check_one() {
  local rel="${1#src/}"
  local id="${rel//\//__}"
  printf '#include "%s"\nint main() { return 0; }\n' "$rel" > "$tmp/$id.cpp"
  if "$CXX" -std=c++20 -Isrc -fsyntax-only "$tmp/$id.cpp" 2> "$tmp/$id.err"; then
    touch "$tmp/$id.ok"
  else
    { echo "NOT SELF-CONTAINED: $1"; sed -n 1,5p "$tmp/$id.err"; } > "$tmp/$id.fail"
  fi
}
export -f check_one

headers="$(find src -name '*.hpp' | sort)"
total="$(printf '%s\n' "$headers" | grep -c .)"
printf '%s\n' "$headers" |
  xargs -P "$(nproc)" -I{} bash -c 'check_one "$1"' _ {}

fail=0
for f in $(find "$tmp" -name '*.fail' | sort); do
  cat "$f"
  fail=1
done
checked="$(find "$tmp" -name '*.ok' -o -name '*.fail' | grep -c .)"
if [ "$checked" -ne "$total" ]; then
  echo "checked $checked of $total headers"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "all $total headers self-contained"
fi
exit "$fail"
