#!/usr/bin/env bash
# Builds perfbench against the gotcpls checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload rpc --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. The build cache and the binary go to
# .bench_build/perfbench inside the checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/tcpls.go" || ! -d "$root/internal/core" ]]; then
	echo "perfbench: no gotcpls sources in $root; run from the root of a checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
