# Developer/CI entry points. `make verify` is the gate CI runs and the
# tier-1 bar every PR must hold.

CARGO ?= cargo

.PHONY: verify fmt fmt-check clippy lint build test test-crates test-transcript study-smoke scenario-smoke timeline-smoke obs-smoke wire-smoke perf-smoke perf-pairs loc doc golden

verify: fmt-check clippy lint doc build test test-crates test-transcript study-smoke scenario-smoke timeline-smoke obs-smoke wire-smoke perf-smoke

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Workspace determinism/robustness contracts (entropy ban, unordered
# iteration, seed-label uniqueness, panic budget). Exits nonzero on any
# unallowed finding; the machine-readable report lands in target/.
lint:
	$(CARGO) run --release -p pm-lint -- --json target/lint.json

# API docs must build warning-free: broken intra-doc links and doc
# drift (e.g. module docs describing a removed scheme) fail the gate.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

build:
	$(CARGO) build --release

# Tier-1 bar: the root package's unit + integration tests.
test:
	$(CARGO) test -q

# Member-crate unit tests (torsim streams, shard accumulators, runner,
# crypto proptests, …) — the root package run above does not cover
# these.
test-crates:
	$(CARGO) test -q --workspace --exclude tor-measure

# Transcript-equality suites rerun under varied harness --test-threads
# counts: the batched-mix and per-link-delivery contracts are about
# scheduling, so one lucky interleaving in the default run must not be
# the only evidence. The TS tamper matrices join them: a batched proof
# check must name the same cell as the per-proof scan at every
# verification thread count, the lane prover's batches must equal
# the per-proof prover at every thread count, and the lane verifier's
# batches must give the per-proof scan's verdict, non-members in every
# lane included, at every thread count. (The suites also run
# once each in the targets above; these reruns pin them under serial
# and oversubscribed schedules.) The name filter is checked first: a
# rename that leaves it matching nothing would otherwise pass by
# running zero tests.
test-transcript:
	$(CARGO) test -q -p psc --test mix_equivalence -- --test-threads=1
	$(CARGO) test -q -p psc --test mix_equivalence -- --test-threads=8
	$(CARGO) test -q --test psc_end_to_end -- --list round_transcript per_link | grep -c ': test$$' > /dev/null
	$(CARGO) test -q --test psc_end_to_end -- round_transcript per_link --test-threads=1
	$(CARGO) test -q --test psc_end_to_end -- round_transcript per_link --test-threads=4
	$(CARGO) test -q -p psc --lib -- --list tampered_ | grep -c ': test$$' > /dev/null
	$(CARGO) test -q -p psc --lib tampered_ -- --test-threads=1
	$(CARGO) test -q -p psc --lib tampered_ -- --test-threads=8
	$(CARGO) test -q -p pm-crypto --lib -- --list raise_and_prove_all | grep -c ': test$$' > /dev/null
	$(CARGO) test -q -p pm-crypto --lib raise_and_prove_all -- --test-threads=1
	$(CARGO) test -q -p pm-crypto --lib raise_and_prove_all -- --test-threads=8
	$(CARGO) test -q -p pm-crypto --lib -- --list verify_batch_ batch_rejects_ batch_names_ | grep -c ': test$$' > /dev/null
	$(CARGO) test -q -p pm-crypto --lib -- verify_batch_ batch_rejects_ batch_names_ --test-threads=1
	$(CARGO) test -q -p pm-crypto --lib -- verify_batch_ batch_rejects_ batch_names_ --test-threads=8

# End-to-end smoke of the longitudinal campaign engine: the full
# 17-day calendar (daily IP rounds, the confirmation repeat, the 96h
# churn round, PrivCount traffic, PSC countries, and the two-day
# exit-domain and onion-service windows) at small scale through the
# real PSC/PrivCount pipelines, exporting both output formats. Guards
# the `campaign` binary and the study crate's wiring the way `test`
# guards the libraries.
study-smoke:
	$(CARGO) run --release -p pm-study --bin campaign -- --list
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 17 --scale 2e-4 --seed 2018 --json target/study_smoke.json --csv \
		> target/study_smoke.csv
	test -s target/study_smoke.json && test -s target/study_smoke.csv
	grep -q '"id": "domains"' target/study_smoke.json
	grep -q '"id": "onions"' target/study_smoke.json

# Adversarial scenario smoke: a small campaign under each attack of
# the scenario suite must complete (no panic), and the machine-readable
# report must carry the matching anomaly records — an abort or a
# degradation per attacked round. The full attack × round-kind matrix
# lives in tests/scenario_matrix.rs; this guards the binary's --attack
# wiring and the JSON channel end to end.
scenario-smoke:
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 7 --scale 2e-4 --seed 2018 --attack byzantine-shares \
		--json target/scenario_byz.json > /dev/null
	grep -q '"kind": "aborted"' target/scenario_byz.json
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 7 --scale 2e-4 --seed 2018 --attack skewed-shares \
		--json target/scenario_skew.json > /dev/null
	grep -q '"kind": "degraded"' target/scenario_skew.json
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 7 --scale 2e-4 --seed 2018 --attack keeper-death \
		--json target/scenario_death.json > /dev/null
	grep -q '"kind": "aborted"' target/scenario_death.json

# Observability smoke: the full 17-day calendar with the wall-clock
# profiling plane live, exporting a chrome://tracing trace. trace-check
# re-parses the file with the workspace's own validator and fails
# unless it is well-formed, spans >= 5 distinct categories, and covers
# the mixnet hot loop, the worker pool, the timeline cursor, the PSC
# noise calibration and per-DC stream construction (the traffic round's
# `gen.streams`) by name. Guards the --trace wiring end to end;
# the planes-separation contract itself (profiling never changes a
# report byte) lives in tests/obs_planes.rs under `test`.
obs-smoke:
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 17 --scale 2e-4 --seed 2018 -q \
		--trace target/obs_trace.json > /dev/null
	$(CARGO) run --release -p pm-obs --bin trace-check -- \
		target/obs_trace.json --min-cats 5 \
		mix.batch job.run timeline.checkpoint_restore dp.calibrate gen.streams

# Wire-fabric smoke: one PSC round whose every protocol frame crosses
# a real loopback TCP socket, pinned byte-for-byte (RawCount and
# per-link transcript digests) against the in-process board by the
# wire_round_matches_in_process test; then the experiments binary
# end-to-end over the wire backend with latency/bandwidth shaping, as
# a deployment would run it; last, a 17-day campaign over the wire whose
# report, minus the wire-only net.wire.* lines, must equal the
# in-process one byte for byte. Guards the --fabric wiring and the
# socket path the way study-smoke guards the campaign engine.
wire-smoke:
	$(CARGO) test -q --release --test psc_end_to_end wire_round
	$(CARGO) test -q --release --test fabric_parity
	$(CARGO) run --release -p torstudy --bin experiments -- \
		--scale 2e-4 --seed 2018 --only F4 --fabric wire:1,100000 -q \
		--json target/wire_smoke.json > /dev/null
	$(CARGO) run --release -p torstudy --bin experiments -- \
		--scale 2e-4 --seed 2018 --only F4 -q \
		--json target/wire_smoke_ref.json > /dev/null
	cmp target/wire_smoke.json target/wire_smoke_ref.json
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 17 --scale 2e-4 --seed 2018 --fabric wire \
		| grep -v '^net\.wire\.' > target/wire_campaign.txt
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 17 --scale 2e-4 --seed 2018 > target/wire_campaign_ref.txt
	cmp target/wire_campaign.txt target/wire_campaign_ref.txt

# Year-scale timeline smoke: sweep 365 days through the snapshot
# cursor, hold 3 sampled days bit-for-bit against the memo-less replay
# of the same day step, and pin the step's output itself (three configs
# x 378 snapshots) to digests generated before the cursor and the replay
# shared one step. Guards the snapshot memo the way the proptests guard
# it per-config, but at the paper-shaped network size.
timeline-smoke:
	$(CARGO) test -q --release -p torsim --test timeline_smoke

# The benchmark package (`perfbench/`, the one harness BENCHMARK.json
# declares) is a workspace of its own that calls this workspace's
# public API. Its unit tests plus `perf --smoke` compile and drive
# that frozen surface, so an API change that breaks the benchmark
# fails here rather than when the benchmark pipeline next runs.
perf-smoke:
	$(CARGO) test --release --manifest-path perfbench/Cargo.toml

# The measurement behind a perf claim: alternating parent/change pairs
# of the benchmark, every run printed, then per workload and metric each
# side's median and quartiles, the ratio, a verdict by the claim rule
# (pairs won, medians vs the parent's inter-quartile distance, spread vs
# BENCHMARK.json's bound) and the report digests, then one `--trace 1`
# pass per side and workload under `timeout` with its `ledger_s`; exits
# nonzero when a digest differs between the sides or a traced pass times
# out or fails. PARENT is required; the parent tree
# is exported and built under target/perf-pairs/. SEED is the workload
# seed both sides run with (a claim is rerun on a second one). Not part
# of `verify`: minutes of wall-clock, and its numbers are for a human to
# read.
#   make perf-pairs PARENT=HEAD~1 WORKLOADS="psc_verified ips7d_mix" PAIRS=10
#   make perf-pairs PARENT=HEAD~1 WORKLOADS=tor_day PAIRS=10 SEED=7
WORKLOADS ?= campaign17d ips7d_mix psc_verified tor_day
PAIRS ?= 4
SECONDS ?= 6
SEED ?= 2018
perf-pairs:
	scripts/perf_pairs.sh "$(PARENT)" "$(WORKLOADS)" "$(PAIRS)" "$(SECONDS)" "$(SEED)"

# The counts a simplicity PR reports: per crate, non-test lines (outside
# the items a `#[cfg(test)]` attribute line opens), test lines, and
# fully-`pub` items (the API surface); with PARENT=<rev>, parent ->
# working tree and the difference. Not part of `verify`: it measures, it
# does not gate.
#   make loc PARENT=HEAD~1
loc:
	scripts/loc.sh $(PARENT)

# Regenerate the committed golden report snapshot and the report digest
# ledger after an intentional output change.
golden:
	UPDATE_GOLDEN=1 $(CARGO) test --release --test golden_reports --test report_digests
