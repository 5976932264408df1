#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the go command's temporary and
# configuration files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
