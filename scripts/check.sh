#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# An API being replaced is deleted in the same change, with its callers
# migrated; it is never left behind as a deprecated shim.
echo "==> no '// Deprecated:' markers"
if grep -rn "Deprecated:" --include='*.go' .; then
    echo "deprecation markers found (remove the API and migrate its callers instead)" >&2
    exit 1
fi

# The transitional UploadNoCtx/RotateNoCtx wrappers were retired after
# their one-release grace period; the context-first API is the only
# API. Nothing may reintroduce a *NoCtx shim.
echo "==> no transitional '*NoCtx' wrappers"
if grep -rn "NoCtx" --include='*.go' .; then
    echo "NoCtx wrappers found (pass a context instead of adding shims)" >&2
    exit 1
fi

# A manager holds only its serving generation and builds one way: the
# history ring, its cap, the switch to from-scratch rebuilds and the
# cloakd flag for it were deleted, and none may come back.
echo "==> no epoch history ring or full-rebuild switch"
if grep -rnE 'WithHistoryLimit|WithIncremental|\.History\(\)|full-rebuild' --include='*.go' .; then
    echo "removed epoch API found (keep the generation RotateAndWait returns; builds are always incremental)" >&2
    exit 1
fi

# The cluster tier has one failure semantics, fail-over, set by
# WithDeadAfter alone; the fail-over switch and its tuning struct, and
# the coordinator and service options no binary set, were deleted and
# none may come back.
echo "==> no fail-over switch or unused coordinator/service options"
if grep -rnE 'WithFailover|Failover\{|WithPoolSize|WithDialOptions|WithQueueCapacity|WithShards\(|WithDialTimeout|WithIdleTimeout' --include='*.go' .; then
    echo "removed option found (fail-over is the only mode: use WithDeadAfter; the other defaults are fixed)" >&2
    exit 1
fi

# Exported names that only tests called were deleted with their tests:
# the wrappers core.ClusterComponent, RegisterCentralizedParallel and
# RegisterCentralizedParallelCtx (their tests call
# ClusterComponentProfiled(..., nil) and anonymizer.Build), the
# random-waypoint mobility model and the one-implementation
# mobility.Model interface, the lazily built anonymizer's constructor,
# options and Server.Built, workload.HotspotHosts, the dataset's
# CSV/gob save/load and Normalize, the induced-subgraph copy
# (Algorithm 1 clusters a vertex list in place), the second exposure
# measurement ExposurePriceAtDefaults, cloaksim's -cell mode (a
# one-point scripts/bench grid runs the same cell), the exported
# worker-pool sizing core.ClampWorkers (core.ClusterComponents is the
# one component pool; its unexported clampWorkers stays), the epoch
# build's per-shard spans (core.component/<i> now), the never-observed
# StageOverhead, and Coordinator.Ping (the ping op and the client keep
# the name). Secure bounding has one four-direction loop,
# core.BoundRectVotes, and one direction type, core.Direction: p2p's
# offsetOf and Dir constants and privacy's XPlus..YMinus are gone, and
# NetworkSystem serves through System's Cloak. The coordinator's second
# re-home counter (ObserveReroutes, ClusterSnapshot.Reroutes and
# cloakd_cluster_reroutes_total) always equalled the border-replay
# counter. None may come back.
echo "==> no deleted test-only names"
if grep -rnE '\bClusterComponent\(|\bRegisterCentralizedParallel\(|RegisterCentralizedParallelCtx|RandomWaypoint|mobility\.Model\b|\.Built\(\)|anonymizer\.NewServer|anonymizer\.With(K|Workers|Epoch)|HotspotHosts|ReadCSV|ReadGob|WriteCSV|WriteGob|\.Normalize\(\)|\.Induced\(|ExposurePriceAtDefaults|runGridCell|core\.ClampWorkers|func ClampWorkers\(|StageOverhead|epoch\.build\.shard|func \(c \*Coordinator\) Ping|func offsetOf\(|p2p\.Dir(X|Y)|\b(X|Y)(Plus|Minus)\b|func \(ns \*NetworkSystem\) Cloak\(|ObserveReroutes|reroutes_total|\.Reroutes\b' --include='*.go' .; then
    echo "deleted name found (call ClusterComponentProfiled(..., nil), core.ClusterComponents, anonymizer.Build or anonymizer.New, LocalWander, RunExposureComparison, scripts/bench run, core.BoundRectVotes with core.Direction, System.Cloak or BorderReplays instead)" >&2
    exit 1
fi

# The epoch upload API takes an UploadRequest struct; the old
# positional (ctx, user, peers) signature is gone and must stay gone.
# Positional calls have a third argument; struct-based calls pass
# (ctx, req) — whether the literal is inline or held in a variable —
# and never match.
echo "==> no positional epoch Upload calls"
if grep -rnE '\.Upload\((ctx|bg|context\.[A-Za-z()]+), *[][A-Za-z0-9_.]+, *[^ ]' --include='*.go' . | grep -v 'UploadRequest{'; then
    echo "positional Upload calls found (use UploadRequest{User:, Peers:, Profile:})" >&2
    exit 1
fi

# staticcheck is optional: run it when the toolchain is installed, skip
# with a notice otherwise (the gate must work on a bare Go image).
if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck ./..."
    staticcheck ./...
else
    echo "==> staticcheck not installed; skipping"
fi

echo "==> go build ./..."
go build ./...

# The examples are documentation that must keep compiling against the
# public API (./... covers them, but a broken example should fail with
# its own banner, not buried in a package list).
echo "==> examples build + vet"
go vet ./examples/...
go build ./examples/...

# Both scheduler shapes: -cpu 1 serializes goroutines the way a 1-core
# box does, -cpu 2 lets them run in parallel.
echo "==> go test -race -cpu 1,2 ./..."
go test -race -cpu 1,2 ./...

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

# e2ebench is its own Go module, so ./... above skips it. Vet and test it
# against this tree the way e2ebench/run.sh builds it (no module proxy,
# no workspace), so removing a name the benchmark imports fails here.
echo "==> e2ebench: go vet + go test (separate module)"
(cd e2ebench && GOPROXY=off GOWORK=off go vet ./... && GOPROXY=off GOWORK=off go test -count=1 ./...)

# Benchmark smoke: every benchmark runs exactly one iteration so a
# broken bench (bad setup, panics, regressions in bench-only call
# sites) fails the gate without paying for a full measurement run.
echo "==> go test -bench=. -benchtime=1x (smoke)"
go test -bench=. -benchtime=1x -run '^$' ./...

# The incremental-rebuild benchmark doubles as the regression harness
# for shard splicing: run it by name so a setup failure (e.g. the churn
# set no longer dirtying whole components) is caught even if someone
# narrows the catch-all smoke above.
echo "==> go test -bench=BenchmarkEpochIncrementalRebuild -benchtime=1x (smoke)"
go test -bench='^BenchmarkEpochIncrementalRebuild$' -benchtime=1x -run '^$' .

# The copy-on-write contract, by name and under the race detector:
# incremental generations equal a fresh manager's first build over the
# same lists (clusters and every adjacency row, order and length
# included), the graph-level row differential
# over messy upload lists, and no build ever writes into a row or
# member list an earlier generation published, with readers running.
echo "==> go test -race -run=incremental row differentials + immutability"
go test -race -count=1 \
    -run='^(TestIncrementalMatchesFullDifferential|TestIncrementalRowsMatchFull|TestPublishedGenerationsStayImmutable)$' \
    ./internal/epoch

# The one relabel, by name and under the race detector: clustering a
# vertex list in place (components ascending, subsets ascending and
# shuffled, with and without floors) equals clustering the subgraph it
# induces, built the old way with a map relabel and FromEdges.
echo "==> go test -race -run=TestTConnInducedMatchesRelabeledSubgraph (relabel differential)"
go test -race -count=1 -cpu 1,2 -run='^TestTConnInducedMatchesRelabeledSubgraph$' ./internal/core

# The component fan-out, by name and under the race detector: the one
# worker pool fills exactly the components it is given, each as
# ClusterComponentProfiled does, and MergeClusters over every component
# equals the whole-graph clustering in emission order, with and without
# floors.
echo "==> go test -race -run=TestClusterComponentsAndMerge (component fan-out)"
go test -race -count=1 -cpu 1,2 -run='^TestClusterComponentsAndMerge$' ./internal/core

# The manager's lifecycle, by name and under the race detector: a dead
# or expiring ctx ends Sync's wait, Sync waits for the latest epoch
# triggered before it (two queued builds included), Close releases a
# Sync parked on a build it dropped and an in-flight build releases
# its own when it finishes, a synchronous rotation leaves nothing
# pending, Status and the pending gauge count each triggered epoch once
# until its build finishes, Status pairs each epoch with its counts, and
# uploads and cloaks race across swaps.
echo "==> go test -race -run=Sync and lifecycle tests"
go test -race -count=1 -cpu 1,2 \
    -run='^(TestSyncHonorsContext|TestSyncWaitsBehindQueuedBuilds|TestCloseReleasesParkedSync|TestRotateAndWaitLeavesNothingPending|TestPendingCountsEachTriggerOnce|TestConcurrentUploadsAndCloaksAcrossSwaps|TestStatusEpochMatchesCounts)$' \
    ./internal/epoch

# The one two-phase request, by name and under the race detector: a
# NetworkSystem answers every progressive bound exactly as the
# in-process System does (cached flags included), its CloakCtx goes
# over the wire, and it rejects BoundOptimal; the network's bounding
# equals core.BoundRect's whole result, and a node votes with
# core.Direction's offset.
echo "==> go test -race -run=network-equivalence tests"
go test -race -count=1 -cpu 1,2 \
    -run='^(TestNetworkSystemMatchesInProcess|TestNetworkSystemCloakCtxUsesNetwork|TestNetworkSystemBoundValidation)$' \
    ./cloak
go test -race -count=1 -cpu 1,2 \
    -run='^(TestBoundRectOverNetwork|TestBoundProbeDirections)$' \
    ./internal/p2p

# The personalized-profile contract, by name: default profiles are
# bit-identical to no profiles, heterogeneous floors satisfy max(k_i).
echo "==> go test -run=TestProfileDifferential (profile equivalence)"
go test -run='^TestProfileDifferential$' -count=1 ./internal/epoch

# Utility-frontier smoke: one small profiles run through the cloaksim
# CLI; a missing tier row means the mix, the estimator wiring, or the
# LBS candidate counting broke.
echo "==> cloaksim -profiles smoke"
go run ./cmd/cloaksim -profiles -n 500 -k 5 | grep '2k+area' > /dev/null \
    || { echo "cloaksim -profiles emitted no 2k+area tier row" >&2; exit 1; }

# The batched-forwarding benchmark, by name: its serialized arm is the
# baseline the >=2x pipelining claim in EXPERIMENTS.md is measured
# against, so a broken setup must fail loudly.
echo "==> go test -bench=BenchmarkCoordinatorUploadBatch -benchtime=1x (smoke)"
go test -bench='^BenchmarkCoordinatorUploadBatch$' -benchtime=1x -run '^$' ./internal/cluster

# The rehome contract, by name and under the race detector: after every
# rotation of seeded upload, death and revival sequences at 2-4 shards,
# the cross-edge rehome's moves, serving table and straddling count
# equal the from-scratch union-find's on a twin coordinator.
echo "==> go test -race -run=TestRehomeMatchesFromScratch (rehome differential)"
go test -race -count=1 -run='^TestRehomeMatchesFromScratch$' ./internal/cluster

# The failure contract, by name and under the race detector: a forward
# cut off on the wire is delivered once its shard is reachable again
# and the next rotation serves every user the single-process answer,
# and a shard revived after a partition keeps no row of a user that
# homes elsewhere, and on an auto-rotating coordinator a writer parked
# behind a failing shard starts the rotation that fails it over.
echo "==> go test -race -run=transport-failure, partition-revival and parked-writer tests"
go test -race -count=1 -cpu 1,2 \
    -run='^(TestNoUploadLostAcrossTransportFailure|TestPartitionedShardRevivesClean|TestParkedWriterStartsFailover)$' \
    ./internal/cluster

# The rehome benchmark, by name: its from-scratch arm is the baseline
# the lock-hold figures in EXPERIMENTS.md are measured against.
echo "==> go test -bench=BenchmarkCoordinatorRehome -benchtime=1x (smoke)"
go test -bench='^BenchmarkCoordinatorRehome$' -benchtime=1x -run '^$' ./internal/cluster

# Short fuzz smoke passes: ten seconds of coverage-guided input per
# target on top of the checked-in seed corpora ('-run ^$' skips the unit
# tests, which already ran above).
echo "==> go test -fuzz=FuzzProtocolDecode (10s)"
go test -fuzz='^FuzzProtocolDecode$' -fuzztime=10s -run '^$' ./internal/service

echo "==> go test -fuzz=FuzzEnvelopeDecode (10s)"
go test -fuzz='^FuzzEnvelopeDecode$' -fuzztime=10s -run '^$' ./internal/service

echo "==> go test -fuzz=FuzzBoundVotes (10s)"
go test -fuzz='^FuzzBoundVotes$' -fuzztime=10s -run '^$' ./internal/core

# Experiment-grid smoke: one rep of the tiny grid through the bench CLI,
# then schema-validate the emitted BENCH json and self-diff it (a report
# must always be clean against itself). Catches grid-runner breakage and
# report-schema drift without paying for a full measurement run; real
# baselines come from `go run ./scripts/bench run` (see EXPERIMENTS.md).
echo "==> bench tiny-grid smoke (run + validate + self-diff)"
benchdir=$(mktemp -d)
go run ./scripts/bench run -grid tiny -reps 1 -rev smoke -out "$benchdir" > /dev/null
go run ./scripts/bench validate "$benchdir/BENCH_smoke.json" > /dev/null
go run ./scripts/bench diff "$benchdir/BENCH_smoke.json" "$benchdir/BENCH_smoke.json" > /dev/null
# A directory argument must resolve to the newest baseline inside it.
go run ./scripts/bench diff "$benchdir" "$benchdir/BENCH_smoke.json" > /dev/null 2>&1
rm -rf "$benchdir"

# Cluster smoke: a 2-shard coordinator serving a few hundred users over
# the real wire protocol — initial build, one churn tick under
# concurrent load, then a full-population sweep. The greps assert every
# user was served or legitimately sub-k (unserved=0) and that the
# coordinator and both shards shut down cleanly; hard cloak failures
# already exit nonzero on their own.
echo "==> cloaksim -cluster smoke (2 shards)"
cluster_out=$(go run ./cmd/cloaksim -cluster -shards 2 -n 300 -k 4 -churn 1 -workers 4)
echo "$cluster_out" | grep -q 'unserved=0' \
    || { echo "cluster smoke: sweep reported unserved users:" >&2; echo "$cluster_out" >&2; exit 1; }
echo "$cluster_out" | grep -q 'clean shutdown' \
    || { echo "cluster smoke: shutdown did not complete:" >&2; echo "$cluster_out" >&2; exit 1; }

# Shard-kill smoke: the same cluster, but with the shards as separate
# cloakd OS processes, loses shard 1 to SIGKILL after the first epoch.
# The run must degrade (retries, not errors), fail the dead shard over
# to the survivor, and still serve the whole population.
echo "==> cloaksim -cluster shard-kill smoke (SIGKILL 1 of 2 cloakd processes)"
killdir=$(mktemp -d)
go build -o "$killdir/cloakd" ./cmd/cloakd
kill_out=$(go run ./cmd/cloaksim -cluster -shards 2 -n 300 -k 4 -churn 1 -workers 4 \
    -cloakd-bin "$killdir/cloakd" -kill-shard 1 -failover-after 300ms)
rm -rf "$killdir"
echo "$kill_out" | grep -q 'failed over' \
    || { echo "kill smoke: dead shard never failed over:" >&2; echo "$kill_out" >&2; exit 1; }
echo "$kill_out" | grep -q 'unserved=0' \
    || { echo "kill smoke: sweep reported unserved users:" >&2; echo "$kill_out" >&2; exit 1; }
echo "$kill_out" | grep -q 'clean shutdown' \
    || { echo "kill smoke: shutdown did not complete:" >&2; echo "$kill_out" >&2; exit 1; }

# Single-process churn smoke: the same churn-under-load loop as the
# cluster smoke, against one process's epoch pipeline. The sweep must
# serve every user or refuse it as sub-k (unserved=0).
echo "==> cloaksim -churn smoke"
churn_out=$(go run ./cmd/cloaksim -churn 2 -n 300 -k 4 -workers 4)
echo "$churn_out" | grep -q 'unserved=0' \
    || { echo "churn smoke: sweep reported unserved users:" >&2; echo "$churn_out" >&2; exit 1; }

# Fault-injection smoke: seeded scenarios drive the two-phase protocol
# over the simulated network, and Algorithm 2's step 3 refines each span
# through the same kernel entry as the centralized builds; every
# invariant must hold after every scenario.
echo "==> cloaksim -faults smoke"
faults_out=$(go run ./cmd/cloaksim -faults 200)
echo "$faults_out" | grep -q 'all invariants held' \
    || { echo "faults smoke: invariants violated:" >&2; echo "$faults_out" >&2; exit 1; }

# Network-equivalence smoke: one cloak request run in process and over
# the simulated message network must print the same cluster, region and
# bounding lines, under the secure and the linear policy.
echo "==> cloaksim -network equivalence smoke"
simdir=$(mktemp -d)
go build -o "$simdir/cloaksim" ./cmd/cloaksim
for bound in secure linear; do
    inproc=$("$simdir/cloaksim" -n 3000 -k 10 -host 17 -bound "$bound" | grep -E '^(cluster|cloaked region|bounding):')
    overnet=$("$simdir/cloaksim" -n 3000 -k 10 -host 17 -bound "$bound" -network | grep -E '^(cluster|cloaked region|bounding):')
    if [ "$(echo "$inproc" | wc -l)" -ne 3 ] || [ "$inproc" != "$overnet" ]; then
        echo "network smoke ($bound): in-process and network runs differ:" >&2
        echo "$inproc" >&2
        echo "---" >&2
        echo "$overnet" >&2
        rm -rf "$simdir"
        exit 1
    fi
done
rm -rf "$simdir"

# Load-generator smoke: the Zipf replay against an anonymizer built
# before the replay; hard cloak failures already exit nonzero on their
# own.
echo "==> cloaksim -load smoke"
load_out=$(go run ./cmd/cloaksim -load 2000 -n 300 -k 4 -workers 2)
echo "$load_out" | grep -q 'clusters cover' \
    || { echo "load smoke: no coverage line:" >&2; echo "$load_out" >&2; exit 1; }

# Coordinator shutdown smoke: cloakd -coordinator must exit 0 on a
# clean SIGINT, as a single cloakd does. The end of the serving context
# closes the listener, and Close must not close it a second time.
echo "==> cloakd -coordinator SIGINT smoke (exit status 0)"
coorddir=$(mktemp -d)
go build -o "$coorddir/cloakd" ./cmd/cloakd
"$coorddir/cloakd" -coordinator -shards 2 -n 200 -k 4 -addr 127.0.0.1:0 \
    > "$coorddir/cloakd.log" 2>&1 &
coord_pid=$!
for _ in $(seq 1 50); do
    grep -q 'coordinator listening on' "$coorddir/cloakd.log" && break
    sleep 0.1
done
kill -INT "$coord_pid"
coord_status=0
wait "$coord_pid" || coord_status=$?
if [ "$coord_status" -ne 0 ] || ! grep -q 'coordinator listening on' "$coorddir/cloakd.log"; then
    echo "coordinator smoke: exit status $coord_status on SIGINT:" >&2
    cat "$coorddir/cloakd.log" >&2
    rm -rf "$coorddir"
    exit 1
fi
rm -rf "$coorddir"

# Device-side demo smoke: cloakd -demo is the one shipped client that
# uploads, freezes and cloaks against a fresh server over the wire
# protocol, so a broken client method or reply shape fails here.
echo "==> cloakd -demo smoke"
demo_out=$(go run ./cmd/cloakd -demo -addr 127.0.0.1:0 -n 500 -k 5)
echo "$demo_out" | grep -q 'demo: server built epoch 1 with' \
    || { echo "demo smoke: no epoch 1 build reported:" >&2; echo "$demo_out" >&2; exit 1; }
echo "$demo_out" | grep -q 'clustered with' \
    || { echo "demo smoke: no cloak answered:" >&2; echo "$demo_out" >&2; exit 1; }

# Admin endpoint smoke: start cloakd with an ephemeral admin port, curl
# /metrics and /healthz, and shut it down. Skipped when curl is absent.
if command -v curl >/dev/null 2>&1; then
    echo "==> cloakd admin smoke (/metrics, /healthz)"
    tmpdir=$(mktemp -d)
    # `|| true`: the smoke already killed cloakd on success, and a
    # failed re-kill under set -e would turn a green run into exit 1.
    trap 'kill "$cloakd_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
    go build -o "$tmpdir/cloakd" ./cmd/cloakd
    "$tmpdir/cloakd" -addr 127.0.0.1:0 -admin 127.0.0.1:0 -n 100 -k 5 \
        > "$tmpdir/cloakd.log" 2>&1 &
    cloakd_pid=$!
    admin_addr=""
    for _ in $(seq 1 50); do
        admin_addr=$(sed -n 's/^cloakd: admin listening on //p' "$tmpdir/cloakd.log")
        [ -n "$admin_addr" ] && break
        sleep 0.1
    done
    if [ -z "$admin_addr" ]; then
        echo "cloakd admin address never appeared:" >&2
        cat "$tmpdir/cloakd.log" >&2
        exit 1
    fi
    curl -sf "http://$admin_addr/metrics" | grep -q '^cloakd_epoch_builds_total' \
        || { echo "/metrics missing cloakd_epoch_builds_total" >&2; exit 1; }
    curl -sf "http://$admin_addr/healthz" | grep -q '"status": "ok"' \
        || { echo "/healthz not ok" >&2; exit 1; }
    kill "$cloakd_pid"
    wait "$cloakd_pid" 2>/dev/null || true
else
    echo "==> curl not installed; skipping admin smoke"
fi

echo "OK"
