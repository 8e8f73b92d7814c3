PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint arch-check concurrency-smoke test stepbench-selftest bench-smoke bench-kernels bench-shards trace-smoke backend-matrix comm-smoke run-report-smoke shard-smoke socket-smoke

## Static analysis: AST lint + lock discipline + lock graph + layering +
## sanitizer self-check.
lint:
	$(PYTHON) -m repro.analysis

## Architecture layering report: every package import edge vs the
## allowed-dependency matrix and the committed ARCH_baseline.json.
arch-check:
	$(PYTHON) -m repro.analysis arch

## Deadlock-detection smoke: the committed ABBA fixture must be caught
## statically (LCK004) AND dynamically (LockRegistry order inversion).
concurrency-smoke:
	$(PYTHON) -m repro.analysis abba-smoke tests/analysis/fixtures/abba.py

## Tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Self-tests of the step benchmark (stepbench/ sits outside tier-1's
## testpaths; ~4 s).
stepbench-selftest:
	$(PYTHON) -m pytest -q stepbench

## Quarter-scale pass over every paper table/figure (~2 min).
bench-smoke:
	REPRO_SCALE=fast $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

## Hot-path kernel regression gate: measured speedup ratios must stay
## within 1.3x of the committed benchmarks/BENCH_kernels.json baseline.
## Re-baseline after an intentional perf change with:
##   python benchmarks/check_regression.py --update
bench-kernels:
	$(PYTHON) benchmarks/check_regression.py

## One tiny workload on every registered execution backend; each result
## is validated against the unified TrainResult schema and must learn.
backend-matrix:
	$(PYTHON) -m repro.exec --iters 40 --workers 2

## Loopback smoke for the channel layer: every frame kind and payload
## type round-tripped over a real OS pipe.
comm-smoke:
	$(PYTHON) -m repro.comm

## Run-telemetry pipeline smoke: a traced 2-worker *process* run writes a
## run dir (manifest + metrics + merged multi-process trace), the report
## renders, the health gate passes on sane SLOs — and must FAIL on an
## impossible staleness SLO (the gate actually gates).
run-report-smoke:
	rm -rf .run-smoke
	$(PYTHON) -m repro.obs run-smoke --runs-dir .run-smoke --run-id ci --workers 2
	$(PYTHON) -m repro.obs report .run-smoke/ci
	$(PYTHON) -m repro.obs check .run-smoke/ci --max-staleness-p99 64 --min-samples-per-sec 1
	! $(PYTHON) -m repro.obs check .run-smoke/ci --max-staleness-p99 -1
	rm -rf .run-smoke

## Sharded parameter-server smoke: a 2-shard × 2-worker run on the
## threaded AND process backends, each writing a run dir with per-shard
## trace lanes and passing the health gate.  The process leg proves
## shard-routed frames cross a real OS pipe; the impossible-SLO check
## proves the gate still gates on sharded manifests.
shard-smoke:
	rm -rf .shard-smoke
	$(PYTHON) -m repro.obs run-smoke --runs-dir .shard-smoke --run-id threaded --backend threaded --shards 2 --workers 2
	$(PYTHON) -m repro.obs run-smoke --runs-dir .shard-smoke --run-id process --backend process --shards 2 --workers 2
	$(PYTHON) -m repro.obs check .shard-smoke/threaded --max-staleness-p99 64 --min-samples-per-sec 1
	$(PYTHON) -m repro.obs check .shard-smoke/process --max-staleness-p99 64 --min-samples-per-sec 1
	! $(PYTHON) -m repro.obs check .shard-smoke/process --max-staleness-p99 -1
	rm -rf .shard-smoke

## Socket-backend smoke: a 2-shard × 2-worker elastic run over real TCP
## loopback (forked workers connect + register through the membership
## handshake) writes a run dir and passes the health gate; then
## checkpoint → restore → continue must reproduce the uninterrupted
## run's loss curve bitwise (`python -m repro.ps smoke` exits non-zero
## on any float of divergence).
socket-smoke:
	rm -rf .socket-smoke
	$(PYTHON) -m repro.obs run-smoke --runs-dir .socket-smoke --run-id socket --backend socket --shards 2 --workers 2
	$(PYTHON) -m repro.obs check .socket-smoke/socket --max-staleness-p99 64 --min-samples-per-sec 1
	! $(PYTHON) -m repro.obs check .socket-smoke/socket --max-staleness-p99 -1
	$(PYTHON) -m repro.ps smoke --checkpoint .socket-smoke/smoke.ckpt
	rm -rf .socket-smoke

## Shard-contention gate: lock-wait p99 must stay non-increasing across
## the 1/2/4/8-shard sweep and throughput ratios must stay within
## tolerance of benchmarks/BENCH_shards.json.  Re-baseline after an
## intentional change with:
##   python benchmarks/bench_shard_contention.py --update
bench-shards:
	$(PYTHON) benchmarks/bench_shard_contention.py

## Traced 2-worker threaded + simulated runs, then validate the export
## (repro.obs convert exits non-zero on any schema violation).
trace-smoke:
	$(PYTHON) -m repro.obs smoke --jsonl .trace-smoke.jsonl --workers 2
	$(PYTHON) -m repro.obs convert .trace-smoke.jsonl .trace-smoke.json
	$(PYTHON) -m repro.obs summary .trace-smoke.jsonl
	rm -f .trace-smoke.jsonl .trace-smoke.json
