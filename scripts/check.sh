#!/bin/sh
# Pre-PR gate: formatting, vet, the full test suite, a race-detector
# pass (shortened: race mode pays ~20x per simulated cycle, and the
# determinism tests honor -short), the parallel-engine determinism gate
# (also oversubscribed at GOMAXPROCS=1), the golden busy-path digests,
# the par reuse stress, the allocation gates and — on machines with
# enough cores — the parallel speedup guard.
# Run from the repository root:
#
#	scripts/check.sh
#
# Everything must pass before sending a PR (see README "Observability
# and tooling").
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...
echo "ok"

echo "== backpressure contract (no ignored Push results) =="
# Queue.Push and Controller.Push return false when the queue is full —
# and drop nothing. Calling Push in statement position discards that
# answer and silently loses the request under backpressure (the
# MSHR-hang bug class fixed in the silent-drop PR). Every push must
# check the result: `if !q.Push(r) { retry }`, or pop only after the
# downstream accepted (`Peek` / `Push` / `Pop`).
bad=$(grep -rn --include='*.go' -E '^[[:space:]]*[A-Za-z0-9_.]+\.Push\(' internal/ cmd/ | grep -v '_test\.go' || true)
if [ -n "$bad" ]; then
	echo "FAIL: Push result ignored (request dropped under backpressure):" >&2
	echo "$bad" >&2
	exit 1
fi
echo "ok"

echo "== go test =="
go test ./...

echo "== go test -race (short) =="
go test -race -short ./...

echo "== fleet race pass (full) =="
# The fleet plane is all cross-goroutine state (membership gossip,
# steal loops, replication pushes, hedges); run its full suite — not
# just -short — under the race detector.
go test -race -count=1 ./internal/fleet/...

echo "== chaos soak gate =="
# The permanent robustness gate: a 3-node fleet under seeded network
# chaos (drops, delays, 503s, truncation, asymmetric partitions) plus
# store corruption, a crash + journal-replaying restart, a mid-sweep
# join and a graceful leave — tables must come out byte-identical to a
# clean single-node run with zero lost jobs, and the same seed must
# re-derive the same fault schedule (see internal/chaos).
go test -count=1 -run 'TestChaosSoak|TestJournalReplayRacesReexecution' -timeout 180s ./internal/chaos

echo "== determinism (workers 1 vs 4, skip vs no-skip vs wheel, golden digests) =="
go test -count=1 -run 'TestParallelDeterminism|TestSkipDeterminism|TestWheelDeterminism|TestBusyPathGoldenDigests' ./internal/exp
# Again on one OS thread: four workers then oversubscribe the CPU,
# which is what exposed the par.Group lost-completion race.
GOMAXPROCS=1 go test -count=1 -run 'TestParallelDeterminism|TestSkipDeterminism|TestWheelDeterminism|TestBusyPathGoldenDigests' ./internal/exp

echo "== par reuse stress =="
# Back-to-back reuse of one group and of the wheel's Arm/Wake protocol
# on 4 workers at GOMAXPROCS 1, 2 and 4 (the tests set it themselves).
go test -count=1 -run 'TestGroupReuseStress|TestWheelReuseStress' ./internal/par

echo "== busy-path allocation gates =="
# The SIMT core and its L1s are allocation-free in steady state, a
# cache miss allocates only its fill request, and a W3 frame stays
# under its allocation ceiling.
go test -count=1 -run 'AllocFree|TestMissFillAllocs|TestFrameW3AllocCeiling' ./internal/simt ./internal/cache .

echo "== checkpoint-resume digest gate =="
# The sampled-simulation contract: the functional executor's memory is
# bit-identical to the detailed pipeline's, a region resumed from a
# checkpoint digests identically across file round trips, worker
# counts and skip modes, and a sweep region job is a pure function of
# its canonical spec.
go test -count=1 -run 'TestFunctionalMatchesDetailed|TestCheckpointResumeFidelity|TestRunRegionJobDeterministic' ./internal/exp

echo "== sampled-vs-full smoke (emerald -sampled) =="
# The sampled pipeline end to end through the CLI: a 12-frame scenario
# detailed at 2 representative regions must report a frame reduction
# and a nonzero whole-run estimate. (The accuracy tolerance itself is
# gated by TestRunSampledPipeline in the full `go test` above.)
sampled_out=$(go run ./cmd/emerald -workload 3 -frames 12 -w 96 -h 72 -sampled -sample-k 2)
echo "$sampled_out"
if ! echo "$sampled_out" | grep -q "x reduction"; then
	echo "FAIL: emerald -sampled reported no detailed-frame reduction" >&2
	exit 1
fi
if echo "$sampled_out" | grep -q "estimate: 0 cycles/frame"; then
	echo "FAIL: emerald -sampled estimated zero cycles" >&2
	exit 1
fi
echo "ok"

echo "== wake-contract sweep =="
# Every NextWake implementor, driven through a crafted busy period:
# reporting a wake later than the first self-driven state change is
# the silent-correctness bug class the wheel turns into wrong results.
go test -count=1 -run 'TestNextWakeContract' ./internal/exp

echo "== event-wheel busy-frame guard =="
# The wheel must not cost anything on a busy frame (its win comes from
# parked components inside busy periods; see BENCH_wheel.json for the
# recorded speedup). Gate wheel-on at 5% of wheel-off, min-of-3 paired
# runs to absorb scheduler noise.
out=$(go test -run '^$' -bench 'BenchmarkFrameW3$|BenchmarkFrameW3NoWheel$' -benchtime=3x -count=3 .)
echo "$out"
echo "$out" | awk '
	$1 ~ /^BenchmarkFrameW3(-[0-9]+)?$/        { if (wheel == 0 || $3 < wheel) wheel = $3 }
	$1 ~ /^BenchmarkFrameW3NoWheel(-[0-9]+)?$/ { if (nowheel == 0 || $3 < nowheel) nowheel = $3 }
	END {
		if (wheel == 0 || nowheel == 0) { print "FAIL: benchmark output missing" > "/dev/stderr"; exit 1 }
		ratio = wheel / nowheel
		printf "busy-frame wheel cost: %.1f%% (negative = speedup; gate +5%%)\n", 100 * (ratio - 1)
		if (ratio > 1.05) { print "FAIL: event wheel slows the busy frame" > "/dev/stderr"; exit 1 }
	}'

echo "== parallel speedup guard =="
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -lt 4 ]; then
	echo "skipped: $cores core(s) available; the 1.5x guard needs >= 4"
else
	out=$(go test -run '^$' -bench 'BenchmarkFrameW3$|BenchmarkFrameW3Par4$' -benchtime=5x -count=1 .)
	echo "$out"
	echo "$out" | awk '
		$1 ~ /^BenchmarkFrameW3(-[0-9]+)?$/ { seq = $3 }
		$1 ~ /^BenchmarkFrameW3Par4(-[0-9]+)?$/ { par = $3 }
		END {
			if (seq == "" || par == "") { print "FAIL: benchmark output missing" > "/dev/stderr"; exit 1 }
			speedup = seq / par
			printf "speedup at 4 workers: %.2fx\n", speedup
			if (speedup < 1.5) { print "FAIL: parallel speedup below 1.5x" > "/dev/stderr"; exit 1 }
		}'
fi

echo "== sweep service smoke test =="
# Start emeraldd on a loopback port, run a tiny two-point sweep cold,
# rerun it warm, and require (a) the warm run to be 100% cache hits and
# (b) its stdout to be byte-identical to the cold run.
tmp=$(mktemp -d)
daemon_pid=""
fleet_pids=""
cleanup() {
	if [ -n "$daemon_pid" ]; then
		kill "$daemon_pid" 2>/dev/null || true
		wait "$daemon_pid" 2>/dev/null || true
	fi
	for fp in $fleet_pids; do
		kill -9 "$fp" 2>/dev/null || true
		wait "$fp" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT
# wait_addr <logfile>: poll for the daemon's listen address.
wait_addr() {
	addr=""
	for _ in $(seq 1 50); do
		addr=$(awk '/listening on/ { print $4; exit }' "$1" 2>/dev/null || true)
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "FAIL: emeraldd never reported its address" >&2
		cat "$1" >&2
		exit 1
	fi
}
go build -o "$tmp/emeraldd" ./cmd/emeraldd
go build -o "$tmp/sweep" ./cmd/sweep
"$tmp/emeraldd" -addr 127.0.0.1:0 -cache "$tmp/cache" >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!
wait_addr "$tmp/daemon.log"
sweep_args="-addr http://$addr -fig 9 -scale smoke -models 2 -configs BAS,DCB"
"$tmp/sweep" $sweep_args >"$tmp/cold.out" 2>"$tmp/cold.err"
"$tmp/sweep" $sweep_args >"$tmp/warm.out" 2>"$tmp/warm.err"
if ! grep -q "cache 0/2" "$tmp/cold.err"; then
	echo "FAIL: cold sweep was not 0/2 cache hits:" >&2
	cat "$tmp/cold.err" >&2
	exit 1
fi
if ! grep -q "cache 2/2 hits (100.0%)" "$tmp/warm.err"; then
	echo "FAIL: warm sweep was not 100% cache hits:" >&2
	cat "$tmp/warm.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/cold.out" "$tmp/warm.out"; then
	echo "FAIL: warm sweep output differs from cold:" >&2
	diff "$tmp/cold.out" "$tmp/warm.out" >&2 || true
	exit 1
fi
cat "$tmp/warm.err"
# Sampled mode through the same daemon: region jobs are content-
# addressed by their canonical spec, so the warm rerun must be 100%
# cache hits with byte-identical stdout.
sample_args="-addr http://$addr -sample -workloads 3 -scale smoke -sample-frames 8 -sample-k 2"
"$tmp/sweep" $sample_args >"$tmp/scold.out" 2>"$tmp/scold.err"
"$tmp/sweep" $sample_args >"$tmp/swarm.out" 2>"$tmp/swarm.err"
if ! grep -q "cache 2/2 hits (100.0%)" "$tmp/swarm.err"; then
	echo "FAIL: warm sampled sweep was not 100% cache hits:" >&2
	cat "$tmp/swarm.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/scold.out" "$tmp/swarm.out"; then
	echo "FAIL: warm sampled sweep output differs from cold:" >&2
	diff "$tmp/scold.out" "$tmp/swarm.out" >&2 || true
	exit 1
fi
cat "$tmp/swarm.err"
# Stop the first daemon before the crash-recovery scenario below.
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "ok"

echo "== crash recovery smoke test =="
# Start a journaling daemon on a fresh cache, kill -9 it mid-sweep,
# restart it on the same cache + journal, and require the resumed
# sweep to (a) succeed, (b) report 100% coverage (zero lost jobs), and
# (c) produce tables byte-identical to the uninterrupted run above.
"$tmp/emeraldd" -addr 127.0.0.1:0 -cache "$tmp/crashcache" >"$tmp/crash1.log" 2>&1 &
daemon_pid=$!
wait_addr "$tmp/crash1.log"
crash_args="-addr http://$addr -fig 9 -scale smoke -models 2 -configs BAS,DCB"
"$tmp/sweep" $crash_args >"$tmp/interrupted.out" 2>"$tmp/interrupted.err" &
sweep_pid=$!
sleep 0.5
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
wait "$sweep_pid" 2>/dev/null || true # the client dies with the daemon
"$tmp/emeraldd" -addr 127.0.0.1:0 -cache "$tmp/crashcache" >"$tmp/crash2.log" 2>&1 &
daemon_pid=$!
wait_addr "$tmp/crash2.log"
grep "recovered" "$tmp/crash2.log" || echo "(nothing was in flight at the kill)"
crash_args="-addr http://$addr -fig 9 -scale smoke -models 2 -configs BAS,DCB"
if ! "$tmp/sweep" $crash_args >"$tmp/resumed.out" 2>"$tmp/resumed.err"; then
	echo "FAIL: post-crash sweep did not complete:" >&2
	cat "$tmp/resumed.err" >&2
	cat "$tmp/crash2.log" >&2
	exit 1
fi
if ! grep -q "cache [0-9]*/2 hits" "$tmp/resumed.err"; then
	echo "FAIL: post-crash sweep lost jobs:" >&2
	cat "$tmp/resumed.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/cold.out" "$tmp/resumed.out"; then
	echo "FAIL: post-crash tables differ from the uninterrupted run:" >&2
	diff "$tmp/cold.out" "$tmp/resumed.out" >&2 || true
	exit 1
fi
cat "$tmp/resumed.err"
echo "ok"

echo "== fleet smoke test (3 nodes) =="
# Start three emeraldd nodes as one fleet (static -peers membership),
# fan the same two-point sweep across them through the fleet client,
# and require: (a) the cold fleet table byte-identical to the
# single-node cold run above, (b) a warm re-run 100% cache hits with
# the same bytes, (c) every result blob replicated to R=2 nodes, and
# (d) kill -9 of one node mid-sweep loses zero jobs and still produces
# the single-node table.
set -- $(go run ./scripts/freeport 3)
fport1=$1 fport2=$2 fport3=$3
peers="http://127.0.0.1:$fport1,http://127.0.0.1:$fport2,http://127.0.0.1:$fport3"
i=1
for fport in $fport1 $fport2 $fport3; do
	"$tmp/emeraldd" -addr "127.0.0.1:$fport" -cache "$tmp/fleet$i" \
		-peers "$peers" -probe-interval 200ms -steal-interval 100ms \
		>"$tmp/fleet$i.log" 2>&1 &
	fleet_pids="$fleet_pids $!"
	i=$((i + 1))
done
# Fleet readiness gates on the first peer-probe round; wait for it.
for fport in $fport1 $fport2 $fport3; do
	ready=""
	for _ in $(seq 1 100); do
		if curl -sf "http://127.0.0.1:$fport/healthz/ready" >/dev/null 2>&1; then
			ready=yes
			break
		fi
		sleep 0.1
	done
	if [ -z "$ready" ]; then
		echo "FAIL: fleet node on port $fport never became ready:" >&2
		cat "$tmp"/fleet*.log >&2
		exit 1
	fi
done
fleet_args="-addr $peers -fig 9 -scale smoke -models 2 -configs BAS,DCB"
"$tmp/sweep" $fleet_args >"$tmp/fleetcold.out" 2>"$tmp/fleetcold.err"
if ! grep -q "cache 0/2" "$tmp/fleetcold.err"; then
	echo "FAIL: cold fleet sweep was not 0/2 cache hits:" >&2
	cat "$tmp/fleetcold.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/cold.out" "$tmp/fleetcold.out"; then
	echo "FAIL: fleet tables differ from the single-node run:" >&2
	diff "$tmp/cold.out" "$tmp/fleetcold.out" >&2 || true
	exit 1
fi
"$tmp/sweep" $fleet_args >"$tmp/fleetwarm.out" 2>"$tmp/fleetwarm.err"
if ! grep -q "cache 2/2 hits (100.0%)" "$tmp/fleetwarm.err"; then
	echo "FAIL: warm fleet sweep was not 100% cache hits:" >&2
	cat "$tmp/fleetwarm.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/cold.out" "$tmp/fleetwarm.out"; then
	echo "FAIL: warm fleet tables differ:" >&2
	diff "$tmp/cold.out" "$tmp/fleetwarm.out" >&2 || true
	exit 1
fi
cat "$tmp/fleetwarm.err"
# Replication is asynchronous; wait for both result blobs to reach
# their R=2 owners (>= 4 blob files across the three caches).
blobs=0
for _ in $(seq 1 100); do
	blobs=$(ls "$tmp"/fleet1 "$tmp"/fleet2 "$tmp"/fleet3 2>/dev/null | grep -c '\.json$' || true)
	[ "$blobs" -ge 4 ] && break
	sleep 0.1
done
if [ "$blobs" -lt 4 ]; then
	echo "FAIL: expected >= 4 replicated blobs across 3 caches, found $blobs" >&2
	exit 1
fi
echo "replication: $blobs blobs across 3 caches (2 keys, R=2)"
# Node death mid-sweep: reference table first (uninterrupted single
# node, 4 cells), then the same sweep through the fleet with one node
# killed -9 while work is in flight.
"$tmp/emeraldd" -addr 127.0.0.1:0 -cache "$tmp/fleetref" >"$tmp/fleetref.log" 2>&1 &
daemon_pid=$!
wait_addr "$tmp/fleetref.log"
kill_args="-fig 9 -scale smoke -models 2 -configs BAS,DCB,DTB,HMC"
"$tmp/sweep" -addr "http://$addr" $kill_args >"$tmp/fleetref.out" 2>/dev/null
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
"$tmp/sweep" -addr "$peers" $kill_args >"$tmp/fleetkill.out" 2>"$tmp/fleetkill.err" &
sweep_pid=$!
sleep 0.3
last_pid=${fleet_pids##* }
kill -9 "$last_pid" 2>/dev/null || true
wait "$last_pid" 2>/dev/null || true
if ! wait "$sweep_pid"; then
	echo "FAIL: fleet sweep did not survive the node kill:" >&2
	cat "$tmp/fleetkill.err" >&2
	cat "$tmp"/fleet*.log >&2
	exit 1
fi
if ! grep -q "cache [0-9]*/4 hits" "$tmp/fleetkill.err"; then
	echo "FAIL: fleet sweep lost jobs after the node kill:" >&2
	cat "$tmp/fleetkill.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/fleetref.out" "$tmp/fleetkill.out"; then
	echo "FAIL: tables after node kill differ from the uninterrupted run:" >&2
	diff "$tmp/fleetref.out" "$tmp/fleetkill.out" >&2 || true
	exit 1
fi
grep "marking .* down\|down:" "$tmp/fleetkill.err" | head -2 || true
for fp in $fleet_pids; do
	kill -9 "$fp" 2>/dev/null || true
	wait "$fp" 2>/dev/null || true
done
fleet_pids=""
echo "ok"

echo "== live telemetry smoke test =="
# Start a pprof-enabled daemon, submit one quick-scale CS1 job (a few
# seconds of simulation), and require: (a) the running job's
# GET /jobs/{id} progress.cycle advances between two polls, (b) the
# on-demand GET /jobs/{id}/diag bundle is non-empty while the job is
# healthy and live, (c) GET /metrics content-negotiates to prometheus
# text exposition, (d) the JSON /metrics shape is still served by
# default, and (e) the flag-gated pprof index answers.
"$tmp/emeraldd" -addr 127.0.0.1:0 -cache "$tmp/telemcache" -pprof >"$tmp/telem.log" 2>&1 &
daemon_pid=$!
wait_addr "$tmp/telem.log"
job_json=$(curl -sf -X POST "http://$addr/jobs" \
	-d '{"kind":"cs1","scale":"quick","model":2,"config":"BAS","mbps":1333}')
job_id=$(echo "$job_json" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"//;s/"$//')
if [ -z "$job_id" ]; then
	echo "FAIL: job submission returned no id: $job_json" >&2
	exit 1
fi
# Poll until the running job publishes progress (first stride poll).
cycle1=""
for _ in $(seq 1 100); do
	cycle1=$(curl -sf "http://$addr/jobs/$job_id" | grep -o '"cycle": *[0-9]*' | head -1 | grep -o '[0-9]*' || true)
	[ -n "$cycle1" ] && break
	sleep 0.05
done
if [ -z "$cycle1" ]; then
	echo "FAIL: running job never reported progress:" >&2
	curl -s "http://$addr/jobs/$job_id" >&2 || true
	exit 1
fi
# Capture an on-demand diagnostic bundle from the live healthy run
# (before the cycle re-poll, while the job is certainly still going).
diag=$(curl -sf "http://$addr/jobs/$job_id/diag")
if ! echo "$diag" | grep -q '"sections"'; then
	echo "FAIL: live diag bundle empty or malformed: $diag" >&2
	exit 1
fi
# The simulation must advance between polls.
advanced=""
for _ in $(seq 1 100); do
	sleep 0.05
	cycle2=$(curl -sf "http://$addr/jobs/$job_id" | grep -o '"cycle": *[0-9]*' | head -1 | grep -o '[0-9]*' || true)
	[ -z "$cycle2" ] && break # job finished; the advance check below decides
	if [ "$cycle2" -gt "$cycle1" ]; then
		advanced=yes
		break
	fi
done
if [ -z "$advanced" ]; then
	echo "FAIL: progress.cycle never advanced past $cycle1" >&2
	exit 1
fi
echo "progress: cycle $cycle1 -> $cycle2, diag captured live"
# Prometheus exposition via content negotiation; JSON stays the default.
if ! curl -sf -H 'Accept: text/plain;version=0.0.4' "http://$addr/metrics" |
	grep -q '# TYPE emerald_sweep_job_latency_ms histogram'; then
	echo "FAIL: prometheus exposition missing from /metrics" >&2
	exit 1
fi
if ! curl -sf "http://$addr/metrics" | grep -q '"queue_depth"'; then
	echo "FAIL: default JSON /metrics shape regressed" >&2
	exit 1
fi
if ! curl -sf "http://$addr/debug/pprof/" >/dev/null; then
	echo "FAIL: pprof index not served with -pprof" >&2
	exit 1
fi
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "ok"

echo "== telemetry overhead guard =="
# The probe publishes once per 1024-cycle stride poll; the budget for
# that is 2% of frame time. Gate at 8% of the min-of-3 paired runs to
# absorb scheduler noise on shared CI machines while still catching a
# real regression (e.g. publishing every cycle).
out=$(go test -run '^$' -bench 'BenchmarkFrameW3$|BenchmarkFrameW3Telemetry$' -benchtime=3x -count=3 .)
echo "$out"
echo "$out" | awk '
	$1 ~ /^BenchmarkFrameW3(-[0-9]+)?$/        { if (bare == 0 || $3 < bare) bare = $3 }
	$1 ~ /^BenchmarkFrameW3Telemetry(-[0-9]+)?$/ { if (probed == 0 || $3 < probed) probed = $3 }
	END {
		if (bare == 0 || probed == 0) { print "FAIL: benchmark output missing" > "/dev/stderr"; exit 1 }
		ratio = probed / bare
		printf "telemetry overhead: %.1f%% (budget 2%%, gate 8%%)\n", 100 * (ratio - 1)
		if (ratio > 1.08) { print "FAIL: telemetry sampling overhead above gate" > "/dev/stderr"; exit 1 }
	}'

echo "== guarded test run (EMERALD_GUARD=1, short) =="
# Re-run the end-to-end simulation tests with the invariant checker
# armed: every probe must hold on the real machine under test load.
EMERALD_GUARD=1 go test -short -count=1 ./internal/exp/ ./internal/soc/ ./internal/gpu/
echo "ok"

echo "all checks passed"
