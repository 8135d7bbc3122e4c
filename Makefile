# Convenience targets; the source of truth is plain `go build/test/bench`.

.PHONY: build test vet lint race durability bench-smoke

build:
	go build ./...

vet:
	go vet ./...

test: vet
	go test ./...

# Invariant suite + third-party static analysis (docs/invariants.md).
# oadb-vet builds from this repo and always runs; staticcheck and
# govulncheck run when installed (CI installs pinned versions).
lint: vet
	go build -o bin/oadb-vet ./cmd/oadb-vet
	./bin/oadb-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

# Race-enabled run of the packages with internal concurrency
# (morsel-parallel scans, the MVCC row store and its skip list, txn
# machinery, group-commit WAL, the public db cursor layer, the network
# server and its scheduler).
# This list is canonical: CI runs this target rather than maintaining
# its own copy.
race:
	go test -race ./db ./internal/storage/colstore ./internal/storage/rowstore ./internal/index ./internal/exec/... ./internal/core ./internal/types ./internal/sql ./internal/txn ./internal/wal ./internal/sched ./internal/server ./internal/wire ./client

# Durability gauntlet: the kill-and-recover fault matrix, torn-tail
# property tests, and crash-recovery round trips, race-enabled.
durability:
	go test -race -run 'TestKillAndRecover|TestDir|TestTorn|TestFault|TestLog' ./internal/wal ./internal/core ./db

# Quick smoke: the E10/E13–E18 scoreboards at minimal iterations.
bench-smoke:
	go test -run '^$$' -bench 'E10_Execution' -benchtime=100x -benchmem .
	go test -run '^$$' -bench 'E13_JoinSort' -benchtime=3x -benchmem .
	go test -run '^$$' -bench 'E14_ParallelPipeline' -benchtime=3x -benchmem .
	go test -run '^$$' -bench 'E15_CommitThroughput' -benchtime=100x .
	go test -run '^$$' -bench 'E16_MixedWorkload' -benchtime=20x .
	go test -run '^$$' -bench 'E17_ScanSkipping' -benchtime=3x -benchmem .
	go test -run '^$$' -bench 'E18_JoinOrdering' -benchtime=3x -benchmem .
