#!/bin/sh
# scaling_gate.sh — fail if a publish fan-out stops being linear in the
# fleet.
#
# Usage: sh scripts/scaling_gate.sh
#
# Runs BenchmarkFanoutScaling once: an idle two-root fleet at 2k and
# one at 8k subscribers per root, built in one process, take
# interleaved publishes at two workers. The benchmark reports the
# median converge time per subscriber at 8k over the same at 2k; the
# gate demands it stay at most 1.5. Both sides come from the same
# process on the same host, so the ratio is robust to machine speed.
# Linear fan-out reads ~1.2 on a 2-core host; the per-ack O(fleet)
# lagging scan it replaced read 1.8. Only POSIX sh + awk, no
# dependencies.
set -eu

out=$(go test -run '^$' -bench '^BenchmarkFanoutScaling$' -benchtime=1x ./internal/core)
growth=$(printf '%s\n' "$out" | awk '/^BenchmarkFanoutScaling/ {
	for (i = 2; i < NF; i++) if ($(i+1) == "per-sub-growth") { print $i; exit } }')
[ -n "$growth" ] || {
	echo "scaling_gate: benchmark produced no result" >&2
	printf '%s\n' "$out" >&2
	exit 1
}

ok=$(awk -v g="$growth" 'BEGIN { print (g <= 1.5) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
	echo "scaling_gate: FAIL per-subscriber converge cost grows ${growth}x from 2k to 8k per root (> 1.5x)" >&2
	exit 1
fi
echo "scaling_gate: OK per-subscriber converge cost grows ${growth}x from 2k to 8k per root (<= 1.5x)"
