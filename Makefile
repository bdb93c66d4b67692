# Developer entry points for the RC4-biases reproduction.
#
# `make verify` is the pre-merge gate: the tier-1 test suite plus a <60 s
# smoke subset of the benchmark suite checked against the committed
# baseline, so perf regressions in the statistics pipeline fail fast
# (as a warning — see bench-check) without running the full bench matrix.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Committed post-PR baseline the smoke subset is compared against.
BENCH_BASELINE ?= benchmarks/BENCH_2026-10-17_scatter_post.json
BENCH_TOLERANCE ?= 0.25

.PHONY: test bench-smoke bench-check bench verify lint

test:
	$(PYTHON) -m pytest -x -q

bench-smoke:
	$(PYTHON) benchmarks/run_benchmarks.py --smoke

# Smoke subset + regression gate against the committed baseline.
# Exit 2 (regression) is downgraded to a warning — baselines recorded on
# other machines drift — while exit 1 (broken benchmarks) stays fatal.
bench-check:
	$(PYTHON) benchmarks/run_benchmarks.py --smoke \
	  --check $(BENCH_BASELINE) --tolerance $(BENCH_TOLERANCE); \
	rc=$$?; \
	if [ $$rc -eq 2 ]; then \
	  echo "WARNING: benchmark regression vs $(BENCH_BASELINE) (soft-fail)"; \
	elif [ $$rc -ne 0 ]; then \
	  exit $$rc; \
	fi

# Full benchmark run; records benchmarks/BENCH_<date>.json.
bench:
	$(PYTHON) benchmarks/run_benchmarks.py

# Requires ruff (pip install ruff); CI runs this as a separate job.
lint:
	ruff check src benchmarks tests

verify: test bench-check
