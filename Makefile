# Developer entry points. `make ci` is the gate every change must pass;
# it is what .github/workflows/ci.yml runs.

CARGO ?= cargo

.PHONY: ci fmt lint lint-invariants sanitize-smoke build test bench bench-smoke bench-bless prof-report report quick-report scenario-smoke shard-smoke clos-smoke perf-gate serve serve-smoke

ci: fmt lint lint-invariants build test shard-smoke clos-smoke perf-gate

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Workspace invariant linter (rperf-lint, DESIGN.md §5): token rules
# D1-D4, D6-D10 plus the interprocedural rules I1-I4 over the workspace call
# graph, configured by the checked-in lint.toml. --ci additionally
# writes LINT_report.json (machine-readable diagnostics) for the CI
# artifact next to BENCH_report.json.
lint-invariants:
	$(CARGO) run --release -q -p rperf-lint -- --ci

# Quick figure sweeps with the sim-sanitizer feature's runtime invariant
# checks (packet conservation, credit bounds, event-time monotonicity):
# fig4 for the latency path, fig5/fig7/fig10 for the bandwidth-bound
# RNIC wake path. Dev profile on purpose: the checks are
# debug_assert!-based.
SANITIZE_FIGS ?= 4 5 7 10
sanitize-smoke:
	for f in $(SANITIZE_FIGS); do \
		$(CARGO) run -q -p rperf-bench --bin figure --features sim-sanitizer -- --fig $$f --quick > /dev/null || exit 1; \
	done

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

bench:
	$(CARGO) bench --workspace

# Regenerates EXPERIMENTS.md + BENCH_report.json at full effort.
report:
	$(CARGO) run --release -p rperf-bench --bin report -- --jobs $(shell nproc)

quick-report:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs $(shell nproc)

# CI smoke: report on the reduced (--quick) point set, single job for
# determinism, then the dispatch-layer microbenches (link delivery
# through one domain; AoS vs SoA buffer scans at 8/36/64 ports) and
# the set-up layer's numbers (route planning and fabric build for fat
# trees of 16, 128 and 1024 hosts).
# Fails if any packet handle leaks; BENCH_report.json is uploaded as a
# workflow artifact.
bench-smoke:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1
	$(CARGO) bench -p rperf-fabric --bench link_delivery
	$(CARGO) bench -p rperf-fabric --bench fabric_build
	$(CARGO) bench -p rperf-switch --bench soa_scan

# Re-blesses the perf baseline: discards BENCH_baseline.json and
# rebuilds it as the per-figure slowest wall time over BLESS_RUNS quick
# report runs (max-over-N keeps scheduler noise from making the ceiling
# too tight). Run after an intentional perf change, then commit the file.
BLESS_RUNS ?= 3
bench-bless:
	rm -f BENCH_baseline.json
	for i in $$(seq $(BLESS_RUNS)); do \
		$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1 --bless; \
	done

# Per-event-kind dispatch attribution (sim-prof feature). All outputs
# are redirected to /tmp — the profiled run's wall times are perturbed
# by the counters and must never feed the committed report or the gate —
# and only the BENCH_prof.json sidecar is copied back for the CI
# artifact upload. Runs sharded (--shards 2) so the sidecar's per-shard
# rows (events, barrier-wait nanos, mailbox traffic) are populated and
# attribute where sharded runs lose time.
prof-report:
	$(CARGO) run --release -p rperf-bench --features sim-prof --bin report -- --quick --jobs 1 --shards 2 --prof --out /tmp/rperf_prof_experiments.md
	cp /tmp/BENCH_prof.json BENCH_prof.json

# Perf-regression gate: rerun the reduced report single-job and fail if
# any figure (or the total) takes more than 10% longer in wall seconds
# than the committed BENCH_baseline.json (sub-second figures get a
# noise-widened tolerance; see report.rs). Re-bless after an
# intentional perf change with `make bench-bless`.
perf-gate:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1 --gate 10

# CI smoke: run the beyond-paper example scenarios end-to-end from their
# spec files and check the emitted JSON parses, then assert the typed
# exit codes: missing file -> 3 (I/O), syntax error or a fat tree too
# wide for 255-port switches -> 2 (spec parse) with a line-numbered
# diagnostic on stderr.
scenario-smoke:
	$(CARGO) run --release -p rperf-cli -- scenario examples/scenarios/chain_gaming.scn --json | python3 -m json.tool > /dev/null
	$(CARGO) run --release -p rperf-cli -- scenario examples/scenarios/incast_8.scn --json | python3 -m json.tool > /dev/null
	$(CARGO) run --release -q -p rperf-cli -- scenario /nonexistent/missing.scn 2>/dev/null; test $$? -eq 3
	printf 'name = "x"\nbogus_key = 1\n' > /tmp/rperf_smoke_bad.scn
	$(CARGO) run --release -q -p rperf-cli -- scenario /tmp/rperf_smoke_bad.scn 2>/tmp/rperf_smoke_bad.err; test $$? -eq 2
	grep -q 'line 2' /tmp/rperf_smoke_bad.err
	printf 'name = "wide"\n[topology]\nkind = "fattree"\nk = 300\ntiers = 2\n' > /tmp/rperf_smoke_wide.scn
	$(CARGO) run --release -q -p rperf-cli -- scenario /tmp/rperf_smoke_wide.scn 2>/tmp/rperf_smoke_wide.err; test $$? -eq 2
	grep -q 'line 4' /tmp/rperf_smoke_wide.err

# Sharded-execution smoke, three gates:
#  1. the golden-figure differential suite (every paper figure at
#     --shards 2 and 4, byte-compared against the shards=1 goldens) —
#     release profile because the sparse sweeps pay barrier costs per
#     nanosecond window (the 2-shard half also runs in `make test`; the
#     oversubscribing 4-shard half is #[ignore]d there);
#  2. the large fanout_30 scenario plus both example scenarios must be
#     byte-identical between --shards 1 and --shards 4;
#  3. on hosts with >= 4 CPUs the sharded fanout_30 run must beat the
#     sequential one by SHARD_SMOKE_MIN_SPEEDUP x wall-clock (skipped on
#     smaller hosts, where conservative window barriers can only add
#     overhead). See scripts/shard_smoke.sh.
SHARD_SMOKE_MIN_SPEEDUP ?= 2.0
shard-smoke:
	$(CARGO) test -q --release -p rperf-bench --test shard_differential -- --include-ignored
	SHARD_SMOKE_MIN_SPEEDUP=$(SHARD_SMOKE_MIN_SPEEDUP) bash scripts/shard_smoke.sh

# Fat-tree/Clos smoke, three gates (scripts/clos_smoke.sh):
#  1. both committed fat-tree example scenarios run end-to-end from
#     their spec files alone and `--dump-routes` prints byte-identical
#     per-switch tables on repeated invocations;
#  2. a generated 128-host k=8 leaf-spine incast is byte-identical
#     between --shards 1 and --shards 4;
#  3. on hosts with >= 4 CPUs the sharded k=8 run must beat the
#     sequential one by CLOS_SMOKE_MIN_SPEEDUP x wall-clock.
CLOS_SMOKE_MIN_SPEEDUP ?= 1.5
clos-smoke:
	CLOS_SMOKE_MIN_SPEEDUP=$(CLOS_SMOKE_MIN_SPEEDUP) bash scripts/clos_smoke.sh

# Runs the scenario service in the foreground on the default port
# (stop it with `rperf-cli serve-stats --shutdown`).
serve:
	$(CARGO) run --release -p rperf-serve

# CI smoke for the serving layer: wire-protocol property tests, the
# deterministic chaos suite (worker panic, truncated/stalled clients,
# overload shedding, budget deadlines, drain), and 200 concurrent
# submissions against a live server with injected faults, asserting
# typed responses, cache hits, and byte-identical outcomes.
serve-smoke:
	$(CARGO) test -q --release -p rperf-serve --test proto_prop --test chaos --test smoke

# The historical per-figure binaries (fig4 … fig13) are aliases onto the
# single `figure` binary: `make fig7`, `make fig13 ARGS="--quick"`.
fig%:
	$(CARGO) run --release -p rperf-bench --bin figure -- --fig $* $(ARGS)
