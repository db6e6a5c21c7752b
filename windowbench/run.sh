#!/usr/bin/env bash
# Builds windowd and the benchmark from the tree under test, then runs one
# benchmark workload. Run from the repository root:
#
#   bash windowbench/run.sh --workload serve-explore --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/windowd" ./cmd/windowd
go build -C windowbench -o "$out/windowbench" .
exec "$out/windowbench" -windowd "$out/windowd" -out "$out" "$@"
