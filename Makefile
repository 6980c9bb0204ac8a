# Developer entry points. `make ci` is the gate every change must pass;
# it is what .github/workflows/ci.yml runs.

CARGO ?= cargo

.PHONY: ci fmt lint lint-invariants docs build test test-release benchmark-test determinism-smoke bench bench-smoke bench-bless report quick-report scenario-smoke clos-smoke perf-gate serve serve-smoke

ci: fmt lint lint-invariants docs build test test-release benchmark-test determinism-smoke perf-gate scenario-smoke clos-smoke serve-smoke

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Workspace invariant linter (rperf-lint, DESIGN.md §5): token rules
# D1-D4, D6-D9 plus the interprocedural rules I1-I4 over the workspace call
# graph, configured by the checked-in lint.toml. --ci additionally
# writes LINT_report.json (machine-readable diagnostics) for the CI
# artifact next to BENCH_report.json.
lint-invariants:
	$(CARGO) run --release -q -p rperf-lint -- --ci

# Every crate's API docs, with rustdoc warnings (a broken intra-doc
# link, a malformed doc attribute) as errors.
docs:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

build:
	$(CARGO) build --release --workspace

# Debug build, so the runtime invariant checks (packet conservation,
# credit bounds, event-time monotonicity, no packet live once the queue
# drains) run as debug_assert!s in every test that simulates.
test:
	$(CARGO) test -q --workspace

# The simulator crates' tests again in release, where the debug-only
# checks are compiled out (their should_panic tests are gated on
# debug_assertions): what a figure run executes must pass them too.
test-release:
	$(CARGO) test -q --release -p rperf-sim -p rperf-model -p rperf-verbs -p rperf-switch -p rperf-rnic -p rperf-subnet -p rperf-fabric

# The repository benchmark (benchmark/, see its README) is a workspace of
# its own that `test` never compiles; build and test it here so a change
# to an API its harness calls fails in CI, not in the benchmark run.
benchmark-test:
	$(CARGO) test -q --offline --manifest-path benchmark/Cargo.toml

# The quick report at --jobs 1 and --jobs 4 must print the same tables
# and count the same events of every kind for every figure, and the
# jobs-1 run must reproduce the committed EXPERIMENTS.md and the
# committed BENCH_report.json's per-kind counts: a change that moves a
# result regenerates both files.
determinism-smoke:
	mkdir -p /tmp/jobs1 /tmp/jobs4
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1 --out /tmp/jobs1/EXPERIMENTS.md
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 4 --out /tmp/jobs4/EXPERIMENTS.md
	diff /tmp/jobs1/EXPERIMENTS.md /tmp/jobs4/EXPERIMENTS.md
	diff /tmp/jobs1/EXPERIMENTS.md EXPERIMENTS.md
	python3 -c 'import json, sys; \
	a, b, c = (json.load(open(f))["figures"] for f in ("/tmp/jobs1/BENCH_report.json", "/tmp/jobs4/BENCH_report.json", "BENCH_report.json")); \
	kinds = lambda figs: {f["id"]: f["events_by_kind"] for f in figs}; \
	sys.exit("per-kind event counts differ between jobs=1 and jobs=4" if kinds(a) != kinds(b) else \
	"per-kind event counts differ from the committed BENCH_report.json" if kinds(a) != kinds(c) else 0)'

bench:
	$(CARGO) bench --workspace

# Regenerates EXPERIMENTS.md + BENCH_report.json (per-figure wall time
# and event counts, in total and per event kind) at full effort.
report:
	$(CARGO) run --release -p rperf-bench --bin report -- --jobs $(shell nproc)

quick-report:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs $(shell nproc)

# CI smoke: report on the reduced (--quick) point set, single job for
# determinism, then the dispatch-layer microbench (link delivery
# through the fabric), the RNIC handlers' number (a 128-WR batch
# through one RNIC's send path, no fabric) and the set-up layer's
# numbers (route planning and fabric build for fat trees of 16, 128
# and 1024 hosts).
# Fails if any packet handle leaks; BENCH_report.json is uploaded as a
# workflow artifact.
bench-smoke:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1
	$(CARGO) bench -p rperf-fabric --bench link_delivery
	$(CARGO) bench -p rperf-rnic --bench tx_path
	$(CARGO) bench -p rperf-fabric --bench fabric_build

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

# Fat-tree/Clos smoke, two gates (scripts/clos_smoke.sh):
#  1. both committed fat-tree example scenarios run end-to-end from
#     their spec files alone and `--dump-routes` prints byte-identical
#     per-switch tables on repeated invocations;
#  2. a generated 128-host k=8 leaf-spine incast runs end-to-end.
clos-smoke:
	bash scripts/clos_smoke.sh

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
