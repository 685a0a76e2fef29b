GO ?= go

.PHONY: ci fmt fmt-fix vet build test race hammer bench bench-compare bench-quick bench-smoke \
	loadgen-smoke docs-check fuzz-smoke \
	deviation-matrix deviation-matrix-short cover-gate \
	crash-smoke ws-smoke chaos-smoke \
	batch-smoke dist-smoke obs-smoke clean

ci: fmt vet build test race hammer bench-smoke bench-quick loadgen-smoke crash-smoke \
	ws-smoke chaos-smoke batch-smoke dist-smoke obs-smoke docs-check fuzz-smoke deviation-matrix-short cover-gate

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Every test runs on 1, 2 and 4 Ps: the registry, the shard loops and the
# group committer interleave differently on each, and a suite that is only
# green on one core count proves less than it claims.
test:
	$(GO) test -cpu 1,2,4 ./...

race:
	$(GO) test -race -cpu 1,2,4 ./...

# The lifecycle hammers, twenty times on each core count: the races they
# guard (create/remove against the ledger, stream attach/close, the shard
# loops) lose on a particular interleaving, so one pass proves little.
hammer:
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestStreamHammer|TestCreateRemoveRaceNeverLeaksLedger|TestAuthorityShardedStress' .

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

# CI-sized loadgen: exercises every scenario, every driver, and both
# transports; fails on harness errors, never on timing.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -sessions 64 -plays 4 > /dev/null
	$(GO) run ./cmd/loadgen -selfserve -sessions 16 -plays 2 > /dev/null
	$(GO) run ./cmd/loadgen -sessions 64 -plays 4 -deviants 0.25 -chaos > /dev/null

# CI-sized streaming smoke: the full scenario mix over the /ws binary
# transport, many sessions multiplexed onto four connections; fails on
# any transport error, never on timing.
ws-smoke:
	$(GO) run ./cmd/loadgen -transport ws -selfserve -sessions 64 -plays 4 -conns 4 > /dev/null

# CI-sized chaos smoke: one run at a 5% disk + 5% net fault rate; fails
# on any verdict loss, digest mismatch, or unhealed connection, never on
# timing.
chaos-smoke:
	$(GO) run ./cmd/loadgen -sessions 24 -plays 6 -conns 4 -seed 1 -chaos-disk 0.05 -chaos-net 0.05 > /dev/null
	$(GO) run ./cmd/loadgen -sessions 24 -plays 6 -conns 4 -seed 1 -chaos-disk 0.2 -chaos-net 0 -batch 3 > /dev/null

# CI-sized batch smoke: the PlayN equivalence battery (every catalog game
# x four drivers x Mem/File stores), crash-mid-batch recovery, the fsync
# regression gate, the group committer's protocol tests, and a batched
# durable loadgen run crossing one crash/recover cycle. Fails on any
# divergence, never on timing.
batch-smoke:
	$(GO) test -run 'TestPlayNEquivalence|TestCrashBetweenCommitEpochs|TestCrashInsideBatchAppend|TestBatchAppendFaults|TestGroupCommitFsyncGate' .
	$(GO) test -run 'TestBatchRecordRoundTrip|TestFileTornBatchTail|TestGroupCommit' ./internal/store
	$(GO) run ./cmd/loadgen -sessions 32 -plays 8 -batch 4 -crash 1 > /dev/null

# The distributed-only scenario mix: the Byzantine families (fork-choice
# mining, committee attestation) plus the public-goods baseline on the
# replicated driver, everything else zeroed out.
DIST_MIX = congestion=0,braess=0,coordination-n=0,publicgoods-punish=0,minority=0,firstprice=0,secondprice=0,pd=0,mixed-pennies=0,rra=0,dist-publicgoods=1,dist-mining=1,dist-committee=1

# CI-sized distributed smoke (DESIGN.md §13): the hard per-pulse allocation
# gates (a warm interactive-consistency phase must not allocate; the
# distributed play budget is pinned at measured+10%), cross-driver
# determinism, the pulse engines' equivalence and the rule that picks
# between them, and short Byzantine scenario rows. Fails on allocation or
# agreement regressions, never on timing.
dist-smoke:
	$(GO) test -run 'TestICEngine|TestDolevStrong' ./internal/bap
	$(GO) test -run 'TestDistEngine' ./internal/core
	$(GO) test -run 'TestAllocsPerPlayDistributed|TestCrossDriverDeterminism' .
	$(GO) run ./cmd/loadgen -sessions 12 -plays 8 -seed 1 -mix "$(DIST_MIX)" > /dev/null

# CI-sized observability smoke (DESIGN.md §14): obssmoke scrapes
# /metrics under real load and asserts every histogram and gauge family
# renders, parses, and is internally consistent, then captures one
# distributed-play trace and validates its per-pulse spans. (The metric
# naming conventions are TestMetricNames, in the ordinary test run.) Fails
# on violations, never on timing.
obs-smoke:
	$(GO) run ./cmd/obssmoke

# CI-sized crash smoke: every scenario family and driver crosses one
# crash/recover cycle; fails on any lost or diverging session, never on
# timing.
crash-smoke:
	$(GO) run ./cmd/loadgen -sessions 48 -plays 4 -crash 1 > /dev/null

# The deviation-profit verification matrix (DESIGN.md §8): every catalog
# game × driver × punishment scheme × selfish strategy, with the profit
# auditor asserting that punished deviation never nets positive utility.
# The short variant runs the same cells at reduced rounds/seeds on every
# push.
deviation-matrix:
	$(GO) test -run TestDeviationMatrix -v .

deviation-matrix-short:
	$(GO) test -run TestDeviationMatrix -short .

# Fuzz smoke: replay the checked-in seed corpora, then give each HTTP
# fuzz target a short live burst. Fails on panics/regressions, never on
# not finding anything new.
fuzz-smoke:
	$(GO) test -run '^Fuzz' .
	$(GO) test -run '^Fuzz' ./internal/wire
	$(GO) test -fuzz '^FuzzServerSessions$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzServerPlay$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzWireDecode$$' -fuzztime 5s -run '^Fuzz' ./internal/wire

# Coverage gate: the audited packages must keep ≥ 70% of statements
# covered by the whole suite (merged -coverpkg profile; see
# cmd/covergate). The profile lives in a temp file so repeated local runs
# leave no cover.out litter in the work tree.
COVER_PKGS = ./internal/core,./internal/punish,./internal/audit,./internal/deviate,./internal/store,./internal/wire,./internal/hub,./internal/faults,./internal/sim,./internal/bap,./internal/obs
cover-gate:
	@profile=$$(mktemp); \
	$(GO) test -short -coverprofile=$$profile -coverpkg=$(COVER_PKGS) ./... > /dev/null && \
	$(GO) run ./cmd/covergate -profile $$profile -min 70 \
		gameauthority/internal/core gameauthority/internal/punish \
		gameauthority/internal/audit gameauthority/internal/deviate \
		gameauthority/internal/store gameauthority/internal/wire \
		gameauthority/internal/hub gameauthority/internal/faults \
		gameauthority/internal/sim gameauthority/internal/bap \
		gameauthority/internal/obs; \
	status=$$?; rm -f $$profile; exit $$status

# Remove generated local artifacts (coverage profiles, build cache junk).
clean:
	rm -f cover.out
	$(GO) clean ./...

# Every internal package must carry a package comment (the godoc story of
# DESIGN.md §1); CI fails when one goes missing.
docs-check:
	@missing=0; for d in internal/*/; do \
		grep -q '^// Package ' $$d*.go || { echo "docs-check: $$d lacks a package comment"; missing=1; }; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-check: every internal package carries a package comment"
