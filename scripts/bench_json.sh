#!/bin/sh
# bench_json.sh — distill `go test -bench` output into a JSON document.
#
# Usage: sh scripts/bench_json.sh [bench.txt [BENCH_PR4.json [BENCH_HISTORY.json]]]
#
# Each benchmark line ("BenchmarkName-8  123  456 ns/op  78 B/op  9
# allocs/op") becomes one object; repeated runs of the same benchmark
# (-count>1) are averaged. Fleet and serve benchmarks
# (BenchmarkE15Fleet*, BenchmarkE18*, BenchmarkServe*), decision-
# plane benchmarks (BenchmarkEvaluate*, BenchmarkResidual*,
# BenchmarkSpecialize*) and distribution fan-out benchmarks
# (BenchmarkDistributorFanout*) are additionally appended as dated rows to a
# cumulative history file, so allocation and latency regressions
# across PRs stay visible without digging through git. Only POSIX sh +
# awk, no dependencies.
set -eu

in=${1:-bench.txt}
out=${2:-BENCH_PR4.json}
hist=${3:-BENCH_HISTORY.json}

[ -f "$in" ] || { echo "bench_json: $in not found (run 'make bench' first)" >&2; exit 1; }

awk -v host="$(uname -sm)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)       # strip GOMAXPROCS suffix
    n[name]++
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name]     += $i
        if ($(i+1) == "B/op")      bytes[name]  += $i
        if ($(i+1) == "allocs/op") allocs[name] += $i
    }
}
END {
    printf "{\n  \"host\": \"%s\",\n  \"benchmarks\": [\n", host
    first = 1
    for (name in n) order[++cnt] = name
    # deterministic output order
    for (i = 1; i <= cnt; i++)
        for (j = i + 1; j <= cnt; j++)
            if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
    for (i = 1; i <= cnt; i++) {
        name = order[i]
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.2f}", \
            name, n[name], ns[name] / n[name], bytes[name] / n[name], allocs[name] / n[name]
    }
    printf "\n  ]\n}\n"
}' "$in" > "$out"

echo "bench_json: wrote $(grep -c '"name"' "$out") benchmarks to $out"

# Cumulative fleet-bench history: one dated row per fleet benchmark in
# this run, appended to a growing JSON array. The file is rewritten
# in place (strip the closing bracket, add rows, close again) so it
# stays a single valid JSON document. Rows measured on uncommitted
# changes carry a "-dirty" commit.
rows=$(awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v commit="$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)" '
/^BenchmarkE15Fleet|^BenchmarkE18|^BenchmarkServe|^BenchmarkEvaluate|^BenchmarkResidual|^BenchmarkSpecialize|^BenchmarkDistributorFanout/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    n[name]++
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name]     += $i
        if ($(i+1) == "B/op")      bytes[name]  += $i
        if ($(i+1) == "allocs/op") allocs[name] += $i
    }
}
END {
    for (name in n) order[++cnt] = name
    for (i = 1; i <= cnt; i++)
        for (j = i + 1; j <= cnt; j++)
            if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
    for (i = 1; i <= cnt; i++) {
        name = order[i]
        printf "  {\"date\": \"%s\", \"commit\": \"%s\", \"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.2f}\n", \
            date, commit, name, n[name], ns[name] / n[name], bytes[name] / n[name], allocs[name] / n[name]
    }
}' "$in")

if [ -n "$rows" ]; then
	{
		echo '['
		{
			[ -f "$hist" ] && grep '"name"' "$hist" | sed 's/,$//'
			printf '%s\n' "$rows"
		} | sed '$!s/$/,/'
		echo ']'
	} > "$hist.tmp"
	mv "$hist.tmp" "$hist"
	echo "bench_json: appended $(printf '%s\n' "$rows" | grep -c '"name"') fleet rows to $hist"
fi
