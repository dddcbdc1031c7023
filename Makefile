# Developer entry points. `make check` is the gate every change must
# pass: vet, build, the full test suite under the race detector (the
# sharded server and the wire server are concurrent by design), and a
# short benchmark smoke so benchmark code cannot rot.

GO ?= go
# Benchmark knobs for `make bench`; BENCH_OUT is the machine-readable
# perf trajectory recorded from PR 2 onward, BENCH_BASE the baseline
# that `make bench-compare` gates against.
BENCHTIME ?= 1s
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_PR16.json
BENCH_BASE ?= BENCH_PR10.json
# The regression gate: benchmarks matching this pattern may not regress
# ns/op by more than BENCH_MAXREGRESS percent against BENCH_BASE. A
# benchmark BENCH_BASE does not have yet (WireIngestManyStreams and
# TopKObserveChurn, first recorded in BENCH_PR15.json; LazyAdvance and
# KalmanPredictUpdateCV, first recorded in BENCH_PR16.json) is listed as
# "new" and gates from the re-base that includes it.
BENCH_GATE ?= SystemScale|MessageRoundTrip|MonitorTick|WindowSnapshot|TopKObserve|E8BudgetAllocation|WireCoalesced|WireIngestManyStreams|HistoryRecord|WALAppend|LatencyRecord|LazyAdvance|KalmanPredictUpdate
BENCH_MAXREGRESS ?= 10
# The size ratchet: `make loc-check` fails when `make loc`'s total (lines
# of non-test Go outside bench/) exceeds this. A PR that spends lines on
# purpose raises it in its own diff, where a reviewer sees it; a PR that
# deletes lowers it to where it lands.
LOC_MAX ?= 22376
LOC_TOTAL = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
# The same ratchet on the observability six — ROADMAP's "consolidating
# engines" aim, whose target is ≤ 4,400.
OBS_MAX ?= 4782
OBS_TOTAL = find internal/diag internal/health internal/history internal/trace internal/telemetry internal/freshness -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

.PHONY: check vet build test race benchsmoke bench bench-compare lint chaos-smoke recovery-smoke cover repro-check bench-smoke loc loc-check

check: lint loc-check build race benchsmoke repro-check bench-smoke

vet:
	$(GO) vet ./...

# lint is the exact command CI's lint job runs. staticcheck and
# govulncheck are optional locally — the target skips (with a notice)
# any tool not on PATH, so a stock Go toolchain can still run
# `make lint` and CI, which installs both, gets the full set. Four
# checks need no tool: everything outside the frozen bench/ is
# gofmt-clean; internal/harness drives core.System only — importing a
# layer below it is how a hand-rolled source+link+server loop grows
# back; and internal/history never imports internal/health — the monitor
# reads the store, so a store that tracks health is a second engine
# growing back. And core.NewNode is the one composition of the protocol
# node: outside internal/core (and tests and bench/) no code builds a
# server.Server, opens or recovers a WAL, installs the durability hooks,
# binds a monitor or attaches anything to the flight recorder (any
# Attach<Name>) — each such call is a second composition starting. Nothing
# outside bench/ (and tests) calls server.Server's Apply, TickStream or
# Value: aliases over the one ingest, step and serve bodies, kept only for
# the benchmark module. And the flight recorder is pulled, not pushed:
# outside internal/diag, the root bench_test.go and bench/ nothing calls
# its one push left, ObserveCorrection, or builds a sketch (NewTopK), so no
# data path feeds it again; both go with the benchmark's diag probe. And
# production keeps only what production runs: a test-helper package (a
# path ending in "test", such as resourcetest's closed-form allocator
# oracles or servertest's tick clock) is imported by tests alone. And a
# read never moves a record: outside tests, nothing under internal/wire or
# cmd/ calls Roll, the tick-clock driver's own mover, so the deployed path
# never regrows a reader that writes.
lint: vet
	@fmt="$$(gofmt -l . | grep -v '^bench/')"; if [ -n "$$fmt" ]; then echo "lint: gofmt -l lists:"; echo "$$fmt"; exit 1; fi
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/harness | grep -E 'internal/(server|netsim|source|resource)$$'
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/history | grep -E 'internal/health$$'
	@! grep -rnE --include='*.go' 'server\.New\(\)|wal\.Open\(|\.Recover\(|Set(Apply|Register)Hook\(|\.Bind\(|\.Attach[A-Z][A-Za-z]*\(' . \
		| grep -vE '^\./(bench|internal/core|\.bench_build)/|_test\.go:' | grep -vE '^[^:]+:[0-9]+:\s*(//|func )'
	@! grep -rnE --include='*.go' '(\bsrv|Server\(\))\.(Apply|Value)\(|\.TickStream\(' . \
		| grep -vE '^\./(bench|\.bench_build)/|_test\.go:' | grep -vE '^[^:]+:[0-9]+:\s*(//|func )'
	@! grep -rnE --include='*.go' '(ObserveCorrection|NewTopK)\(' . \
		| grep -vE '^\./(bench|internal/diag|\.bench_build)/|^\./bench_test\.go:' | grep -vE '^[^:]+:[0-9]+:\s*(//|func )'
	@! grep -rnE --include='*.go' '"kalmanstream/[a-z/]+test"' . | grep -vE '^\./\.bench_build/|_test\.go:'
	@! grep -rnE --include='*.go' '\.Roll\(' internal/wire cmd | grep -vE '_test\.go:' | grep -vE '^[^:]+:[0-9]+:\s*(//|func )'
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# chaos-smoke runs the deterministic fault-injection scenario (loss
# burst, partition+heal, uplink blackout) and fails unless the protocol
# re-converges within the recovery window, every SLO alert the run
# raised has cleared by the end, AND every page produced a matching
# incident bundle. Everything generated lands under ./artifacts/ (the
# gitignored scratch directory all smoke targets share): the classic
# summary, the alert log, the incident bundles, and the full finest-tier
# telemetry-history dump; CI uploads the directory wholesale.
chaos-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/streamkf chaos -out artifacts/chaos_summary.txt -health-out artifacts/health_summary.txt -bundle-dir artifacts/chaos_bundles -history-out artifacts/chaos_history.json

# recovery-smoke is the end-to-end crash-recovery gate: build a real
# kfserver, drive a workload into it over TCP with a write-ahead log
# armed, SIGKILL it mid-flush, restart it on the same directory, and
# fail unless recovery replayed the log, triggered zero watchdog resync
# requests, kept the precision audit clean, and serves answers
# byte-identical to a control server that never died. The WAL directory
# and the JSON verdict land under ./artifacts/ for CI to upload.
recovery-smoke:
	mkdir -p artifacts
	$(GO) build -o artifacts/kfserver ./cmd/kfserver
	$(GO) run ./cmd/streamkf recovery -server artifacts/kfserver -wal-dir artifacts/recovery_wal -report artifacts/recovery_report.json

# repro-check is the reproduction gate: the full E1–E13 run must come out
# byte-for-byte as committed in experiments_full.txt, so no change to the
# protocol path can move an experiment table unnoticed.
repro-check:
	$(GO) run ./cmd/streamkf run -ticks 50000 all | diff - experiments_full.txt

# bench-smoke compiles the deployed-path benchmark (bench/, a module of
# its own that the root build never sees) against the current wire/server
# API and runs its four workloads at smoke scale against a real kfserver.
bench-smoke:
	$(GO) -C bench test ./...

# loc prints the size ROADMAP tracks — lines of non-test Go outside
# bench/ (and outside the bench's gitignored build directory) — then the
# same per internal package, then the two sums PRs are gated on: the
# wire+core+server trio of ROADMAP item 1, and the experiment drivers
# (internal/harness + cmd/streamkf), and the observability six. CI writes
# it to the job summary so every PR shows its delta.
loc:
	@$(LOC_TOTAL)
	@for d in internal/*/; do \
		printf '%7d %s\n' "$$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%7d %s\n' "$$(find internal/wire internal/core internal/server -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "internal/wire + internal/core + internal/server"
	@printf '%7d %s\n' "$$(find internal/harness cmd/streamkf -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "internal/harness + cmd/streamkf"
	@printf '%7d %s\n' "$$($(OBS_TOTAL))" "observability six (diag health history trace telemetry freshness)"

loc-check:
	@n=$$($(LOC_TOTAL)); if [ $$n -gt $(LOC_MAX) ]; then echo "loc-check: $$n non-test lines, ceiling is $(LOC_MAX) (raise LOC_MAX in the Makefile if the lines are spent on purpose)"; exit 1; fi
	@n=$$($(OBS_TOTAL)); if [ $$n -gt $(OBS_MAX) ]; then echo "loc-check: $$n non-test lines in the observability six, ceiling is $(OBS_MAX)"; exit 1; fi

# cover runs the full test suite with an atomic-mode coverage profile
# and writes both the raw profile and the per-function summary under
# ./artifacts/ (the gitignored scratch directory all smoke targets
# share); CI uploads the summary as a workflow artifact alongside
# bench_ci.json.
cover:
	mkdir -p artifacts
	$(GO) test -covermode=atomic -coverprofile=artifacts/cover.out ./...
	$(GO) tool cover -func=artifacts/cover.out | tee artifacts/cover_summary.txt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchsmoke executes every ProtocolTick benchmark, and the wire
# server's warm and cold batch apply, for a fixed 100 iterations —
# seconds, not minutes — purely to keep benchmark code compiling and
# running.
benchsmoke:
	$(GO) test -run=NONE -bench=ProtocolTick -benchtime=100x .
	$(GO) test -run=NONE -bench=ApplyBatch -benchtime=100x ./internal/wire

# bench runs the full benchmark suite with allocation stats and records
# the per-benchmark means (ns/op, B/op, allocs/op, msgs/stream-tick) in
# $(BENCH_OUT) via cmd/benchjson.
bench:
	$(GO) test -bench=. -benchmem -count=$(BENCHCOUNT) -benchtime=$(BENCHTIME) -run=^$$ . \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# bench-compare diffs the freshly recorded $(BENCH_OUT) against the
# $(BENCH_BASE) baseline and fails on a >$(BENCH_MAXREGRESS)% ns/op
# regression in the gated benchmarks. Run `make bench` first.
bench-compare:
	$(GO) run ./cmd/benchjson -old $(BENCH_BASE) -new $(BENCH_OUT) \
		-filter '$(BENCH_GATE)' -maxregress $(BENCH_MAXREGRESS)
