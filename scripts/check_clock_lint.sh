#!/usr/bin/env bash
# Clock-injection lint: everything above the runtime layer must read time
# through waran::rt::Clock (src/rt/clock.h), never std::chrono clocks or the
# POSIX clock syscalls directly. Direct clock reads break virtual-time
# campaigns — they pin code to wall time, so deterministic
# faster-than-real-time runs silently go nondeterministic. Only the rt layer
# itself (which wraps the real clock) and src/common (below rt in the layer
# stack) may call the raw clocks.
#
# Run from the repo root. Exits non-zero listing every offending line.
set -u

cd "$(dirname "$0")/.."

# Every scanned tree must exist: a renamed directory silently dropping out
# of the scan is exactly the kind of coverage rot this lint exists to stop.
scan_dirs=(src tests tools bench examples)
for d in "${scan_dirs[@]}"; do
  if [ ! -d "$d" ]; then
    echo "clock lint: expected directory '$d' missing — update scan_dirs" >&2
    exit 2
  fi
done

pattern='(steady_clock|system_clock|high_resolution_clock)::now|(clock_gettime|gettimeofday)\s*\('

hits=$(grep -rEn "$pattern" \
  --include='*.cpp' --include='*.h' --include='*.inc' \
  "${scan_dirs[@]}" |
  grep -v '^src/rt/' |
  grep -v '^src/common/')

if [ -n "$hits" ]; then
  echo "clock lint: raw clock reads outside src/rt/ and src/common/:" >&2
  echo "$hits" >&2
  echo "use waran::rt::now_ns() (src/rt/clock.h) instead." >&2
  exit 1
fi

# The interpreter loop reads no clock at all: fuel is the only bound on a
# call, so its outcome depends on its inputs and budget, never on timing.
interp_loop=src/wasm/interp_loop.inc
if [ ! -f "$interp_loop" ]; then
  echo "clock lint: expected file '$interp_loop' missing — update the lint" >&2
  exit 2
fi
loop_hits=$(grep -nE 'now_ns|Clock::' "$interp_loop")
if [ -n "$loop_hits" ]; then
  echo "clock lint: clock reads in $interp_loop:" >&2
  echo "$loop_hits" | sed "s|^|$interp_loop:|" >&2
  echo "bound execution with fuel (CallOptions::fuel), not time." >&2
  exit 1
fi

echo "clock lint: OK (no raw clock reads outside src/rt/ and src/common/," \
  "none in the interpreter loop)"
