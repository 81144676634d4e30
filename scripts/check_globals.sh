#!/usr/bin/env bash
# Globals lint: anomalies are journaled by the component that contained
# them, and telemetry is read through the handles its writers hold, not
# looked up again by label strings in a process-global registry.
#
#   - Nothing may mention AnomalyJournal::global: that process-wide
#     journal is gone, and a component owns its journal.
#   - Only the files in `registry_allowlist` may call
#     MetricsRegistry::global() in src/: the layers that register the
#     series they write (and the registry itself). A new caller elsewhere,
#     such as the fleet plane, would re-find a cell's series by label.
#
# Run from the repo root. Exits non-zero listing every offending line.
set -u

cd "$(dirname "$0")/.."

# Every scanned tree must exist: a renamed directory silently dropping out
# of the scan is exactly the kind of coverage rot this lint exists to stop.
scan_dirs=(src tests tools bench examples perfbench)
for d in "${scan_dirs[@]}"; do
  if [ ! -d "$d" ]; then
    echo "globals lint: expected directory '$d' missing — update scan_dirs" >&2
    exit 2
  fi
done

registry_allowlist=(
  src/chaos/harness.cpp
  src/obs/anomaly.cpp
  src/obs/metrics.cpp
  src/plugin/manager.cpp
  src/ran/mac.cpp
  src/ric/e2lite.cpp
  src/ric/near_rt_ric.cpp
  src/ric/transport.cpp
  src/rt/deployment.cpp
)
for f in "${registry_allowlist[@]}"; do
  if [ ! -f "$f" ]; then
    echo "globals lint: allowlisted file '$f' missing — update registry_allowlist" >&2
    exit 2
  fi
done

status=0

journal_hits=$(grep -rn 'AnomalyJournal::global' \
  --include='*.cpp' --include='*.h' --include='*.inc' "${scan_dirs[@]}")
if [ -n "$journal_hits" ]; then
  echo "globals lint: the process-wide anomaly journal is gone:" >&2
  echo "$journal_hits" >&2
  echo "record into the owning component's journal (GnbMac, PluginManager, SloEngine)." >&2
  status=1
fi

registry_hits=$(grep -rn 'MetricsRegistry::global()' \
  --include='*.cpp' --include='*.h' --include='*.inc' src)
for f in "${registry_allowlist[@]}"; do
  registry_hits=$(printf '%s\n' "$registry_hits" | grep -v "^$f:")
done
if [ -n "$registry_hits" ]; then
  echo "globals lint: MetricsRegistry::global() outside the allowlist:" >&2
  echo "$registry_hits" >&2
  echo "read through the handles the writing component holds" \
    "(e.g. GnbMac::add_telemetry)." >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "globals lint: OK (no AnomalyJournal::global, MetricsRegistry::global()" \
    "only in the ${#registry_allowlist[@]} allowlisted src/ files)"
fi
exit "$status"
