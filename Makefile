GO ?= go

.PHONY: ci fmt vet build test race hammer bench bench-compare bench-quick bench-smoke \
	docs-check fuzz-smoke cover-gate

ci: fmt vet build test race hammer bench-smoke bench-quick docs-check fuzz-smoke cover-gate

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Every test runs on 1, 2 and 4 Ps: the registry, the shard loops and the
# group committer interleave differently on each, and a suite that is only
# green on one core count proves less than it claims. This is also where
# the end-to-end acceptance table runs (TestAcceptance: the scenario fleet
# over every transport, the chaos twins, the crash/recover rows), the
# observability assertions (TestObservabilityUnderLoad), and the PlayN,
# group-commit, allocation and deviation-matrix gates. One row alone is
# `go test -run 'TestAcceptance/<row>' -v .`.
test:
	$(GO) test -cpu 1,2,4 ./...

race:
	$(GO) test -race -cpu 1,2,4 ./...

# The lifecycle hammers, twenty times on each core count: the races they
# guard (create/remove against the ledger, stream attach/close, /ws plays
# on the shard loops against direct HTTP plays of the same session, a
# shared game's cleanup against a create of its spec, Recover against
# GetOrRecover and Remove, manual snapshots against a session's plays,
# Close against a session's plays and the counters its stage moves) lose
# on a particular interleaving, so one pass proves little. The second line
# races the File store's Close against appends, compactions and deletes,
# with no committer and in both flush modes. The third line
# hammers the /ws client's recycled reply slots under the race detector:
# their hazard is a connection dying with replies in flight.
hammer:
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestStreamHammer|TestCreateRemoveRaceNeverLeaksLedger|TestAuthorityShardedStress|TestGameInternHammer|TestRecoverRacesGetOrRecoverAndRemove|TestSnapshotRacesPlays|TestCloseRacesPlayN' .
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestFileCloseRacesAppends' ./internal/store
	$(GO) test -race -count=20 -cpu 1,2,4 -run 'TestClientConcurrentPlaysOwnTheirResults|TestClientInFlightCallNotReused|TestClientMidFrameDisconnect|TestClientReconnect|TestClientPlayDedup|TestClientSurvivesRepeatedCuts' ./internal/hub

# One iteration per benchmark: a bit-rot smoke, not a measurement. CI runs
# this — it fails on build/bench errors, never on timing noise.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark ledger (bench/README.md, BENCHMARK.json): four workloads,
# seven end-to-end metrics each, the per-layer rows; one result file under
# bench_out/ (~2 min).
bench:
	$(GO) run ./bench

# Two sets of result files (a directory of result-*.json, or one file)
# against the bounds in BENCHMARK.json: make bench-compare A=dirA B=dirB.
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# CI-sized ledger run: one tiny window per workload with every output
# check on (twin digests, crash/recover digests, deviants convicted and
# nobody else fouled). Fails on a failed check, never on timing.
bench-quick:
	$(GO) run ./bench -quick > /dev/null

# Fuzz smoke: replay the checked-in seed corpora, then give each fuzz
# target (HTTP sessions and play, restore from a snapshot's state, wire,
# evidence codec, history ring, agreement value pool, session-file reader,
# session-file record frames) a short live burst. Fails on panics/regressions, never on not finding
# anything new.
fuzz-smoke:
	$(GO) test -run '^Fuzz' .
	$(GO) test -run '^Fuzz' ./internal/wire
	$(GO) test -run '^Fuzz' ./internal/core
	$(GO) test -run '^Fuzz' ./internal/bap
	$(GO) test -run '^Fuzz' ./internal/store
	$(GO) test -fuzz '^FuzzServerSessions$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzServerPlay$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzSnapshotState$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzWireDecode$$' -fuzztime 5s -run '^Fuzz' ./internal/wire
	$(GO) test -fuzz '^FuzzEvidenceCodec$$' -fuzztime 5s -run '^Fuzz' ./internal/core
	$(GO) test -fuzz '^FuzzHistoryRing$$' -fuzztime 5s -run '^Fuzz' ./internal/core
	$(GO) test -fuzz '^FuzzValuePool$$' -fuzztime 5s -run '^Fuzz' ./internal/bap
	$(GO) test -fuzz '^FuzzSessionFile$$' -fuzztime 5s -run '^Fuzz' ./internal/store
	$(GO) test -fuzz '^FuzzRecordFrame$$' -fuzztime 5s -run '^Fuzz' ./internal/store

# Coverage gate: the audited packages must keep ≥ 70% of statements
# covered by the whole suite (merged -coverpkg profile; see
# cmd/covergate). The profile lives in a temp file so repeated local runs
# leave no cover.out litter in the work tree.
COVER_PKGS = ./internal/core,./internal/punish,./internal/audit,./internal/deviate,./internal/store,./internal/wire,./internal/hub,./internal/faults,./internal/sim,./internal/bap,./internal/clocksync,./internal/obs,./internal/stats
cover-gate:
	@profile=$$(mktemp); \
	$(GO) test -short -coverprofile=$$profile -coverpkg=$(COVER_PKGS) ./... > /dev/null && \
	$(GO) run ./cmd/covergate -profile $$profile -min 70 \
		gameauthority/internal/core gameauthority/internal/punish \
		gameauthority/internal/audit gameauthority/internal/deviate \
		gameauthority/internal/store gameauthority/internal/wire \
		gameauthority/internal/hub gameauthority/internal/faults \
		gameauthority/internal/sim gameauthority/internal/bap \
		gameauthority/internal/clocksync gameauthority/internal/obs \
		gameauthority/internal/stats; \
	status=$$?; rm -f $$profile; exit $$status

# Every internal package must carry a package comment (the godoc story of
# DESIGN.md §1); CI fails when one goes missing.
docs-check:
	@missing=0; for d in internal/*/; do \
		grep -q '^// Package ' $$d*.go || { echo "docs-check: $$d lacks a package comment"; missing=1; }; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-check: every internal package carries a package comment"
