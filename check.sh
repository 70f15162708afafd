#!/bin/sh
# check.sh — the full local gate: formatting, vet, build, race-enabled tests.
# Run before every commit; CI runs exactly this.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
# Explicit path roots (not `.`): gofmt -l . descends into whatever non-Go
# trees accumulate next to the module (editor state, build output) and so
# behaves differently between environments. -d prints the diff so the CI
# log shows exactly what to fix.
# bench/ is its own module, which ./... never reaches: it is named here
# and vetted from inside it.
unformatted=$(gofmt -l ./cmd ./internal ./examples ./bench ./*.go)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	gofmt -d ./cmd ./internal ./examples ./bench ./*.go
	exit 1
fi

echo "== go vet =="
go vet ./...
(cd bench && go vet .)

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "OK"
