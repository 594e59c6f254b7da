#!/usr/bin/env bash
# Builds the harness and runs it with the arguments given. BENCHMARK.json
# names this script as the benchmark's command.
#
# The harness is a Go module of its own (bench/go.mod) that imports the
# repository's packages through a replace directive, so it is built from the
# source of whatever checkout it sits in. Binary and Go build cache both go
# under .bench_build/ of that checkout: nothing is read or written outside
# it, and the first run in a fresh checkout pays for the whole build.
#
# `bash bench/run.sh check` runs the gates the root module's `go vet ./...`,
# `go test ./...` and `make lint` do not reach, because this is a module of
# its own: gofmt, go vet, the unit tests and xmovievet over bench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export CGO_ENABLED=0 GOPROXY=off

if [[ "${1:-}" == "check" ]]; then
	unformatted="$(gofmt -l bench)"
	if [[ -n "$unformatted" ]]; then
		echo "gofmt: $unformatted" >&2
		exit 1
	fi
	go vet -C bench .
	go test -C bench .
	go run -C bench xmovie/cmd/xmovievet ./...
	exit 0
fi

go build -C bench -o "$build/mcam-bench" .
exec "$build/mcam-bench" "$@"
