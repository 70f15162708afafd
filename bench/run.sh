#!/usr/bin/env bash
# Builds the benchmark and the placed daemon from the checkout it sits in,
# then runs the benchmark from the checkout root. Every build product, cache
# and temporary file stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   bash bench/run.sh -compare base.json new.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

# The results record the commit measured; a checkout without .git has none.
commit=unknown
if [ -e .git ] && commit="$(git rev-parse HEAD 2>/dev/null)"; then
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		commit="$commit-dirty"
	fi
else
	commit=unknown
fi

go build -buildvcs=false -o "$build/bin/placed" ./cmd/placed
(cd bench && go build -buildvcs=false -o "$build/bin/bench" .)
exec "$build/bin/bench" -placed "$build/bin/placed" -commit "$commit" "$@"
