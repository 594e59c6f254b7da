# Build/test entry points for the xmovie repository. `make verify` is the
# tier-1 gate (ROADMAP.md); CI runs the same targets plus race/bench jobs.

GO ?= go

.PHONY: build test test-short race-wake flake-census verify fmt-check vet lint cross generate generate-check \
	metrics-guard bench-check bench-smoke bench-guard fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short mode skips the timing experiments (internal/experiments); the race
# detector job uses it so the full matrix stays fast.
test-short:
	$(GO) test -short -race ./...

# The wake-discipline, pipe-push, inbox wake/deadline and adopted-inbox
# bound tests, twenty times under the race detector: a lost wake or a
# misordered delivery shows as an intermittent stall, which one run may not
# hit.
race-wake:
	$(GO) test -race -count=20 -run='TestNoLostWake|TestLazyClockMaturesDelayWhileBusy|TestSchedulerReadsNoClockWithoutDelays' ./internal/estelle
	$(GO) test -race -count=20 -run='TestPipePush|TestPipeSendAfterPeerCloseFails|TestTPKTReportsEOFOnce|TestConnProviderBridgesRealPipe|TestPipeParkedRecvEOFOnClose|TestPipeQueuedBeforeCloseArriveFirst|TestPipeDeadline|TestDeadline|TestAdoptedInbox' ./internal/transport

# Flake census: every package's tests twenty times, then the short matrix
# five times under the race detector. For each phase it prints how many
# test runs passed, then each test that failed at least once with its
# failure count, and as "(package)" the failed package runs: those count a
# build failure, a panic or a timeout too. The failed tests' messages
# follow. It fails when anything failed. Slow (tens of minutes); CI runs
# it nightly.
flake-census:
	@out="$$(mktemp -d)"; trap 'rm -rf "$$out"' EXIT; \
	$(GO) test -count=20 -json ./... >"$$out/full" 2>&1; \
	$(GO) test -short -race -count=5 -json ./... >"$$out/race" 2>&1; \
	status=0; for phase in full race; do \
		echo "$$phase: $$(grep '"Test":' "$$out/$$phase" | grep -c '"Action":"pass"') test runs passed; failed (count, package, test):"; \
		grep '"Action":"fail"' "$$out/$$phase" | \
			sed -E -e 's/.*"Package":"([^"]*)","Test":"([^"]*)".*/\1 \2/' -e t -e 's/.*"Package":"([^"]*)".*/\1 (package)/' | \
			sort | uniq -c; \
		grep '"Action":"fail"' "$$out/$$phase" | grep '"Test":' | \
			sed -E 's/.*("Test":"[^"]*").*/\1,"Output"/' | sort -u >"$$out/keys"; \
		grep '"Action":"output"' "$$out/$$phase" | grep -F -f "$$out/keys" | grep -E '_test\.go:[0-9]+: ' | \
			sed -E -e 's/.*"Output":"(.*)"\}$$/\1/' -e 's/\\n$$//' -e 's/\\t/ /g'; \
		if grep -q '"Action":"fail"' "$$out/$$phase"; then status=1; fi; \
	done; exit $$status

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
# append-path encoders and typed decoders of the three PDU layers, the
# deadline conn's receive under a deadline, MTP stream paths — including the FrameSource send
# path, the paced emit path stepped by the timer wheel, the zero-copy
# batched send path with its syscall-count bound and the UDP conn's
# SendBatch/TryRecv — the disk store's cached read path, TPKT's one write
# per message, one whole Query round trip per control stack over a pipe
# association, and one generated association's open and close) +
# append-vs-schema byte-identity proofs, the cold/cached disk-read
# benchmark and the directory's Add+Remove at 1k and 16k entries.
bench-guard:
	$(GO) test -run='TestSendSelectFireAllocs|TestPDUEncodeAllocs|TestPPDUEncodeAllocs|TestPDUDecodeAllocs|TestPPDUDecodeAllocs|TestSPDUParseAllocs|TestStreamPathAllocs|TestFrameSourceSendAllocs|TestPacedEmitAllocs|TestLiveTailSendAllocs|TestBatchedSendAllocs|TestBatchedSendSyscalls|TestUDPConnAllocs|TestDiskCachedReadAllocs|TestAppendMatchesSchemaEncoder|TestDeadlineRecvAllocs|TestTPKTSendOneWrite|TestHandcodedQueryAllocs|TestGeneratedQueryAllocs|TestGeneratedAssocOpenAllocs' \
		./internal/estelle ./internal/mcam ./internal/presentation ./internal/session ./internal/mtp ./internal/moviedb ./internal/transport ./internal/core
	$(GO) test -run='^$$' -bench='BenchmarkDiskStream|BenchmarkDSARemove' -benchtime=10x -benchmem ./internal/moviedb ./internal/directory

# Fuzz smoke: each native fuzz target for ten seconds — the typed MCAM and
# presentation decoders against their schema oracle, the SPDU parser's round
# trip, TPKT framing and disk-store open over arbitrary segment and metadata
# bytes. `make test` already replays the committed seed
# corpora (testdata/fuzz); this explores past them. An input that fails is written
# into the package's testdata/fuzz, where, once committed, `make test`
# replays it.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/mcam
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/presentation
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/session
	$(GO) test -run='^$$' -fuzz='^FuzzTPKTRecv$$' -fuzztime=10s ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzDiskOpen$$' -fuzztime=10s ./internal/moviedb

# Everything CI checks, locally.
ci: fmt-check vet lint cross bench-check build generate-check test-short race-wake test fuzz-smoke bench-smoke bench-guard
