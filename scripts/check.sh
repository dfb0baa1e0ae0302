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

# The buffered-ingest equivalence proof and its throughput harness, by
# name for the same reason: the 100-seed differential is the contract
# that the sharded ingest layer publishes byte-identical generations.
echo "==> go test -run=TestBufferedMatchesDirectDifferential (ingest equivalence)"
go test -run='^TestBufferedMatchesDirectDifferential$' -count=1 ./internal/epoch

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
echo "==> go test -bench=BenchmarkUploadThroughputZipf -benchtime=1x (smoke)"
go test -bench='^BenchmarkUploadThroughputZipf$' -benchtime=1x -run '^$' .

# The batched-forwarding benchmark, by name: its serialized arm is the
# baseline the >=2x pipelining claim in EXPERIMENTS.md is measured
# against, so a broken setup must fail loudly.
echo "==> go test -bench=BenchmarkCoordinatorUploadBatch -benchtime=1x (smoke)"
go test -bench='^BenchmarkCoordinatorUploadBatch$' -benchtime=1x -run '^$' ./internal/cluster

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
