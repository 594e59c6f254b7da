# Build/test entry points for the xmovie repository. `make verify` is the
# tier-1 gate (ROADMAP.md); CI runs the same targets plus race/bench jobs.

GO ?= go

.PHONY: build test test-short verify fmt-check vet lint cross generate generate-check \
	metrics-guard bench-check bench-smoke bench-guard bench-trajectory fuzz-smoke load-smoke \
	load-stream load-disk load-broadcast load-chaos load-qos load-scale ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short mode skips the timing experiments (internal/experiments); the race
# detector job uses it so the full matrix stays fast.
test-short:
	$(GO) test -short -race ./...

# Tier-1 verify: exactly what reviewers and the CI gate run.
verify: build test metrics-guard lint bench-check

# Metrics-name drift guard: the /metrics families the server exports are
# pinned by internal/core/testdata/metric_names.golden — renaming or
# dropping one breaks downstream dashboards silently. Regenerate the
# golden file with UPDATE_GOLDEN=1 when a change is deliberate.
metrics-guard:
	$(GO) test -run TestMetricNamesGolden ./internal/core

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Contract lint: xmovievet machine-checks the //xmovie:* annotations —
# no-retain delivery buffers, the timewheel pacing discipline, sync.Pool
# ownership, lock-holding conventions, and zero-alloc hot paths (see
# DESIGN.md "Static contracts"). Runs alongside go vet, not instead of it.
lint:
	$(GO) run ./cmd/xmovievet ./...

# Cross-build: the data plane has platform files (sendmmsg on linux
# amd64/arm64, a copying SendBatch elsewhere; a non-blocking read on unix,
# a read deadline elsewhere) that a linux build never compiles.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=freebsd GOARCH=amd64 $(GO) build ./...

# The benchmark harness is a module of its own (bench/go.mod), so the
# root's fmt-check, vet, test and lint never reach it; bench/run.sh check
# runs the same four gates over bench/ (it builds into .bench_build/).
bench-check:
	bash bench/run.sh check

# Regenerate internal/gen from specs/ in place (the paper's step 2:
# formal description -> code).
generate:
	$(GO) run ./cmd/estgen -pkg pingpong -o internal/gen/pingpong/pingpong_gen.go specs/pingpong.est
	$(GO) run ./cmd/estgen -pkg abp -o internal/gen/abp/abp_gen.go specs/abp.est

# Fail when the committed generated sources drift from the specifications
# (byte-for-byte), and validate the interpreted-only skeleton.
generate-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/estgen -pkg pingpong -o "$$tmp/pingpong_gen.go" specs/pingpong.est && \
	$(GO) run ./cmd/estgen -pkg abp -o "$$tmp/abp_gen.go" specs/abp.est && \
	cmp internal/gen/pingpong/pingpong_gen.go "$$tmp/pingpong_gen.go" && \
	cmp internal/gen/abp/abp_gen.go "$$tmp/abp_gen.go" && \
	$(GO) run ./cmd/estgen -check specs/mcam_skeleton.est && \
	echo "generated sources in sync with specs/"

# One iteration of every benchmark: a perf-regression smoke hook, not a
# measurement. CI runs it so later PRs inherit a baseline.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Hot-path guard: allocation-regression tests (pooled runtime cycle,
# append-path encoders and typed decoders of the three PDU layers, MTP
# stream paths — including the FrameSource send
# path, the paced emit path stepped by the timer wheel, the zero-copy
# batched send path with its syscall-count bound and the UDP conn's
# SendBatch/TryRecv — and the disk store's cached read path) +
# append-vs-schema byte-identity proofs, the cold/cached disk-read
# benchmark and the directory's Add+Remove at 1k and 16k entries, then the
# mcambench -json smoke emitting BENCH_*.json into bench-out/.
bench-guard:
	$(GO) test -run='TestSendSelectFireAllocs|TestPDUEncodeAllocs|TestPPDUEncodeAllocs|TestPDUDecodeAllocs|TestPPDUDecodeAllocs|TestSPDUParseAllocs|TestStreamPathAllocs|TestFrameSourceSendAllocs|TestPacedEmitAllocs|TestLiveTailSendAllocs|TestBatchedSendAllocs|TestBatchedSendSyscalls|TestUDPConnAllocs|TestDiskCachedReadAllocs|TestAppendMatchesSchemaEncoder' \
		./internal/estelle ./internal/mcam ./internal/presentation ./internal/session ./internal/mtp ./internal/moviedb
	$(GO) test -run='^$$' -bench='BenchmarkDiskStream|BenchmarkDSARemove' -benchtime=10x -benchmem ./internal/moviedb ./internal/directory
	mkdir -p bench-out
	$(GO) run ./cmd/mcambench -json -outdir bench-out e4 hot

# Fuzz smoke: each native fuzz target for ten seconds — the typed MCAM and
# presentation decoders against their schema oracle, and the SPDU parser's
# round trip. `make test` already replays the committed seed corpora
# (testdata/fuzz); this explores past them. An input that fails is written
# into the package's testdata/fuzz, where, once committed, `make test`
# replays it.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/mcam
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/presentation
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/session

# Benchmark trajectory: every experiment and hot-path micro-benchmark plus
# the load-harness smoke profile (1000 concurrent sessions over the
# in-memory pipe, all-open barrier), each emitting BENCH_<name>.json into
# bench-out/. Exits nonzero on allocation-guard regressions or any
# load-harness error, so the trajectory doubles as a gate.
bench-trajectory:
	mkdir -p bench-out
	$(GO) run ./cmd/mcambench -json -outdir bench-out
	$(GO) run ./cmd/mcamload -profile smoke -json -outdir bench-out

# Load smoke: the mcamload soak profile under the race detector — 256
# sessions at 64-way concurrency over every stack×transport combination,
# 30s wall-clock cap. Exactly what the CI load-soak job runs.
load-smoke:
	mkdir -p bench-out
	$(GO) run -race ./cmd/mcamload -profile soak -json -outdir bench-out

# Stream-scenario load: the data-plane harness under the race detector.
# Every session plays a 125-frame movie paced at 250 fps over a lossy path
# whose bandwidth sustains only half that rate, with a mid-stream
# pause/resume; per-stream receive throughput and the adaptive sender's
# dropped/late frame counts land in BENCH_mcamload_stream.json. Runs in
# the CI load-soak job next to load-smoke.
load-stream:
	mkdir -p bench-out
	$(GO) run -race ./cmd/mcamload -scenarios stream -sessions 64 -concurrent 32 \
		-movies 16 -frames 125 -fps 250 -maxtime 90s \
		-json -out mcamload_stream -outdir bench-out

# Disk-backend load: every session streams its own durable movie twice —
# cold through the segment store's chunk cache, then cache-warm — flat
# out over a clean path. sessions == movies keeps the cold pass honest
# (each movie's first read really is cold). Cold/warm throughput and the
# cache hit/miss counters land in BENCH_mcamload_disk.json; runs in the
# CI load-soak job next to load-smoke and load-stream.
load-disk:
	mkdir -p bench-out
	$(GO) run -race ./cmd/mcamload -scenarios disk -sessions 48 -concurrent 16 \
		-movies 48 -frames 250 -maxtime 90s \
		-json -out mcamload_disk -outdir bench-out

# Live-broadcast load: one recorder keeps a movie live while 2000 viewers
# stream it concurrently — each appended frame encoded once and fanned out
# from the live window, late joiners replaying history before following
# the tail. Fan-out throughput, live-edge lag percentiles, and the
# late-joiner byte-identity verdict land in BENCH_mcamload_broadcast.json.
# The small fan-out regression test runs under the race detector first;
# the 2000-viewer run itself cannot (2000 stream + receiver goroutines
# exceed the race runtime's ~8k goroutine budget).
load-broadcast:
	$(GO) test -race -run 'TestLiveBroadcastFanOut' ./internal/mcam
	mkdir -p bench-out
	$(GO) run ./cmd/mcamload -scenarios broadcast -sessions 2000 -concurrent 2000 \
		-frames 400 -maxtime 180s \
		-json -out mcamload_broadcast -outdir bench-out

# Chaos load: fault injection with asserted recovery shapes — a slow-disk
# stream degraded with skips (never a wedged sender), a mid-stream
# partition-and-heal, a latency spike, and a thundering-herd reconnect of
# 1000 backoff clients across a server kill/restart with one interrupted
# stream resumed byte-identically. Recovery percentiles land in
# BENCH_mcamload_chaos.json. The small partition-and-heal regression test
# runs under the race detector first; the 1000-client herd itself runs
# without it (the storm's goroutine count and timing assertions do not
# mix with race instrumentation).
load-chaos:
	$(GO) test -race -run 'TestPartitionHealMidStream' .
	mkdir -p bench-out
	$(GO) run ./cmd/mcamload -scenarios chaos -sessions 1000 -concurrent 128 \
		-movies 8 -frames 240 -fps 120 -stacks generated,handcoded \
		-json -out mcamload_chaos -outdir bench-out

# Multi-tenant QoS load: two tenant classes (gold prio 10, free prio 0)
# contend past MaxSessions — every gold connection must preempt a free
# session — then stream past their per-class bandwidth caps concurrently,
# asserting per-class throughput within ±10% of each cap, and a /metrics
# scrape exposing every exported family. The per-tenant admission,
# preemption and bandwidth-cap regression tests run under the race
# detector first; outcomes land in BENCH_mcamload_qos.json.
load-qos:
	$(GO) test -race -run 'TestTenantQuota|TestPriorityPreemption|TestTenantBandwidthCap|TestMetricsEndpointScrape' ./internal/core
	mkdir -p bench-out
	$(GO) run ./cmd/mcamload -scenarios qos -stacks generated,handcoded -maxtime 90s \
		-json -out mcamload_qos -outdir bench-out

# Scale load: the conn-multiplexing client mode — a tier ladder of logical
# sessions (1k/5k/10k by default) multiplexed over 64 pooled control
# connections, asserting a 250ms p99 SLO and a 4KB marginal-memory-per-
# session ceiling at every tier; the sessions-vs-latency curve lands in
# BENCH_mcamload_scale.json. MCAMLOAD_SCALE_FULL=1 raises the ladder to
# 10k/50k/100k (the full tier; a few seconds per stack, so it stays out
# of the default CI path). The zero-copy batch-send regression tests run
# under the race detector first.
load-scale:
	$(GO) test -race -run 'TestBatchedSendSyscalls|TestSendVecConsumesBeforeReturn' ./internal/mtp
	mkdir -p bench-out
	$(GO) run ./cmd/mcamload -scenarios scale -stacks generated,handcoded -maxtime 120s \
		-json -out mcamload_scale -outdir bench-out

# Everything CI checks, locally.
ci: fmt-check vet lint cross bench-check build generate-check test-short test fuzz-smoke bench-smoke bench-guard \
	bench-trajectory load-smoke load-stream load-disk load-broadcast load-chaos \
	load-qos load-scale
