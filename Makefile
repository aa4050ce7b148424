# Convenience targets (plain pytest works too; see CONTRIBUTING.md).

.PHONY: install test fuzz fuzz-quick lint lint-sarif kernel-clean check bench bench-quick bench-report examples all clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/ -q

# Bounded, fully seeded fault-injection pass (deterministic; < 2 min):
# the robustness-marked tests run the 432-case campaign — byte damage,
# zip bombs, hung and crashing workers — and the recover-mode property
# checks excluded from the default `test` run.
fuzz:
	pytest tests/robustness -q -m robustness

# Reduced campaign for CI gating (3 seeds per cell, ~150 cases): same
# grid, same zero-crash contract, well under the job's hard timeout.
# Exit code 1 = at least one crash escaped the structured-error contract.
fuzz-quick:
	PYTHONPATH=src python -m repro fuzz --seeds 3

# AST + dataflow + interprocedural + interval invariant checker
# (REP001-REP021; REP003, REP005, REP009, REP010 and REP017 retired
# into REP016, REP018, REP014, REP015 and REP020;
# docs/STATIC_ANALYSIS.md).  Exit 0 clean / 1 findings / 2 internal
# error; the shipped baseline is empty, so any finding is a regression.
# The per-module rule phase fans out over 2 worker processes; the
# summary line reports wall time and worker count.
lint:
	PYTHONPATH=src python -m repro lint src/repro --baseline lint-baseline.json --jobs 2

# Machine-readable SARIF 2.1.0 report (CI uploads this as an artifact).
# Exit code matches `make lint`; the report is written either way.
lint-sarif:
	PYTHONPATH=src python -m repro lint src/repro --format sarif --jobs 2 > lint-report.sarif

# The numpy kernel must decode a 2 MB bench corpus on its own: exit 1
# if a leg (gzip_unwrap, marker_inflate, serial pugz, serial
# pugz_build_index, index reads that start and stop inside blocks,
# block-start searches) never enters the kernel, has a block fall back
# to the pure loop, or builds a pure decode table the kernel should not
# need.
kernel-clean:
	python benchmarks/check_kernel_clean.py --mb 2

check: test fuzz lint kernel-clean

bench:
	pytest benchmarks/ --benchmark-only

# Decode-throughput regression check (docs/PERFORMANCE.md): times the
# hot decode paths on a deterministic corpus and writes BENCH_pr10.json
# with speedups vs the committed benchmarks/BENCH_baseline.json.
# Corpus size in MB via BENCH_CORPUS_MB (default 2.0).
bench-quick:
	PYTHONPATH=src python benchmarks/bench_decode.py --out BENCH_pr10.json

bench-report:
	rm -f benchmarks/last_report.txt
	pytest benchmarks/ --benchmark-only -s
	@echo "--- consolidated report: benchmarks/last_report.txt"

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

all: test bench

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
