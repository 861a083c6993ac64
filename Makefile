PYTHON ?= python

# Optional: make smoke-sampling PROFILE=smoke.collapsed writes
# collapsed stacks (flamegraph format) for the run alongside the JSON.
PROFILE ?=

SMOKES = sampling chaos recovery updates server server_chaos

.PHONY: test lint bench check-bench check-links

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

lint:
	ruff check src tests benchmarks

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q

# make smoke-NAME runs one repro.bench smoke (NAME in $(SMOKES)),
# writes BENCH_NAME.json and gates it against the committed copy.
smoke-%:
	PYTHONPATH=src $(PYTHON) -m repro.bench $* BENCH_$*.json \
		$(if $(PROFILE),--profile $(PROFILE))
	$(PYTHON) tools/check_bench.py BENCH_$*.json

check-bench:
	$(PYTHON) tools/check_bench.py $(SMOKES:%=BENCH_%.json)

check-links:
	$(PYTHON) tools/check_links.py
