# Convenience targets; dune is the real build system.

DUNE ?= dune
BALIGN = $(DUNE) exec --no-print-directory bin/balign.exe --

.PHONY: all build test check check-par smoke lint analyze report \
  bench-json serve-soak clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# Full verification: build, the whole test suite (including the
# fault-injection and robustness suites), a CLI smoke test of the
# documented exit codes, the static-analysis gate on the committed
# examples, and the single-clock rule: every duration and deadline
# reads Ba_obs.Mono, so gettimeofday may not appear in the sources, and
# stage timings are span totals, so under lib/ only the span recorder
# (lib/obs), budgets and the serve latency histogram read the clock
# directly.
check: build test smoke lint
	@! grep -rn gettimeofday lib bin || { echo "check FAIL: gettimeofday outside Ba_obs.Mono"; exit 1; }
	@! grep -rnE 'Mono\.(now_ns|since_s)' lib \
	  | grep -vE '^lib/(obs/|robust/budget\.ml:|serve/server\.ml:)' \
	  || { echo "check FAIL: clock read outside spans (see Makefile check)"; exit 1; }

# The smoke test drives the built binary through the failure paths that
# docs/ROBUSTNESS.md documents and checks the exit codes line up;
# `report` must reject a misspelled section name.
smoke: build
	@tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	printf 'fn main() { print(1); }' > $$tmp/ok.mc; \
	printf 'fn main( {' > $$tmp/bad.mc; \
	set -- \
	  "0:align $$tmp/ok.mc" \
	  "0:align $$tmp/ok.mc --deadline-ms 0" \
	  "3:compile $$tmp/bad.mc" \
	  "4:align $$tmp/ok.mc --input 1,two,3" \
	  "2:align $$tmp/ok.mc --input 1 --input-file $$tmp/ok.mc" \
	  "7:align $$tmp/ok.mc --deadline-ms 0 --fallback none" \
	  "2:bench nosuchbench" \
	  "2:report tabel1"; \
	for case in "$$@"; do \
	  want=$${case%%:*}; cmd=$${case#*:}; \
	  $(BALIGN) $$cmd >/dev/null 2>&1; got=$$?; \
	  if [ "$$got" -ne "$$want" ]; then \
	    echo "smoke FAIL: balign $$cmd -> exit $$got (want $$want)"; exit 1; \
	  fi; \
	  echo "smoke ok  : balign $$cmd -> exit $$got"; \
	done

# Parallel determinism gate: the full test suite, then the report
# summary + results/ export at --jobs 1 vs a real domain pool of one
# domain per core (at least 2, so the pool is exercised even on a
# one-core box; more domains than cores only adds contention).  Stdout
# and the committed results (spec92/spec95/appendix.csv and report.txt
# — everything but the timing files) must be byte-identical across job
# counts and equal to the committed files; the wall-clock ratio of the
# two runs is reported as the parallel speedup.
check-par: build test
	@tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	j=$$(nproc 2>/dev/null || echo 2); [ "$$j" -lt 2 ] && j=2; \
	committed="results/spec92.csv results/spec95.csv results/appendix.csv results/report.txt"; \
	for n in 1 $$j; do \
	  echo "check-par: report summary csv at --jobs $$n..."; \
	  s=$$(date +%s%N); \
	  $(BALIGN) report summary csv --jobs $$n > $$tmp/out.$$n 2>/dev/null \
	    || { echo "check-par FAIL: report exited $$?"; exit 1; }; \
	  echo $$(( $$(date +%s%N) - s )) > $$tmp/ns.$$n; \
	  mkdir $$tmp/res.$$n; cp $$committed $$tmp/res.$$n/; \
	done; \
	diff -u $$tmp/out.1 $$tmp/out.$$j \
	  || { echo "check-par FAIL: stdout differs across job counts"; exit 1; }; \
	diff -ur $$tmp/res.1 $$tmp/res.$$j \
	  || { echo "check-par FAIL: committed results differ across job counts"; exit 1; }; \
	echo "check-par: balign align stdout + bench --json at --jobs 1 vs $$j..."; \
	$(BALIGN) align examples/programs/collatz.mc --input 40 \
	  > $$tmp/align.1 2>/dev/null; \
	$(BALIGN) align examples/programs/collatz.mc --input 40 --jobs $$j \
	  > $$tmp/align.max 2>/dev/null; \
	diff -u $$tmp/align.1 $$tmp/align.max \
	  || { echo "check-par FAIL: balign align differs across job counts"; exit 1; }; \
	BALIGN_COMMIT=checkpar $(BALIGN) bench com --json $$tmp/b1.json --jobs 1 \
	  >/dev/null 2>&1; \
	BALIGN_COMMIT=checkpar $(BALIGN) bench com --json $$tmp/bmax.json --jobs $$j \
	  >/dev/null 2>&1; \
	mask() { sed -E -e 's/"(wall_ms|p50_ms|p95_ms)":[0-9.eE+-]+/"\1":X/g' \
	  -e 's/"date":"[^"]*"/"date":X/' -e 's/"jobs":[0-9]+/"jobs":X/g' "$$1"; }; \
	mask $$tmp/b1.json > $$tmp/b1.masked; \
	mask $$tmp/bmax.json > $$tmp/bmax.masked; \
	diff -u $$tmp/b1.masked $$tmp/bmax.masked \
	  || { echo "check-par FAIL: bench --json differs across job counts"; exit 1; }; \
	git diff --exit-code -- results/ \
	  || { echo "check-par FAIL: results/ differs from the committed files (rerun balign report csv and commit)"; exit 1; }; \
	awk -v a=$$(cat $$tmp/ns.1) -v b=$$(cat $$tmp/ns.$$j) 'BEGIN { \
	  printf "check-par ok: output identical; wall-clock %.1fs -> %.1fs (speedup x%.2f)\n", \
	    a/1e9, b/1e9, a/b }'

# Static-analysis gate: every committed example must lint clean under
# --strict — structurally and trained on its documented input — and a
# certified alignment must pass independent re-verification
# (docs/ANALYSIS.md).
lint: build
	@tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; set -e; \
	for p in collatz scanner dispatch; do \
	  echo "lint --strict: examples/programs/$$p.mc"; \
	  $(BALIGN) lint examples/programs/$$p.mc --strict > /dev/null; \
	done; \
	echo "lint --strict: collatz.mc trained on --input 200"; \
	$(BALIGN) lint examples/programs/collatz.mc --input 200 --strict \
	  > /dev/null; \
	echo "lint --strict: scanner.mc trained on its documented stream"; \
	$(BALIGN) lint examples/programs/scanner.mc \
	  --input "6, 97, 98, 32, 49, 92, 10" --strict > /dev/null; \
	echo "lint --strict: dispatch.mc trained on an opcode stream"; \
	$(BALIGN) lint examples/programs/dispatch.mc \
	  --input "1 2 3 4 5 0" --strict > /dev/null; \
	echo "certify: collatz.mc alignment re-verified"; \
	$(BALIGN) align examples/programs/collatz.mc --input 200 \
	  --certify $$tmp/cert.json > /dev/null; \
	$(DUNE) exec --no-print-directory test/tools/check_lint.exe -- \
	  --cert $$tmp/cert.json; \
	echo "lint ok: examples are clean and the certificate verifies"

# Structural-analysis gate (docs/ANALYSIS.md): `balign analyze` JSON
# on every committed example and on a 10^5-block synthetic family,
# each validated structurally, plus a --profile static alignment
# smoke (layouts trained on the Wu-Larus estimate, no training run).
analyze: build
	@tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; set -e; \
	for p in collatz scanner dispatch; do \
	  echo "analyze: examples/programs/$$p.mc"; \
	  $(BALIGN) analyze examples/programs/$$p.mc --format json \
	    > $$tmp/$$p.json; \
	  $(DUNE) exec --no-print-directory test/tools/check_trace.exe -- \
	    --analyze $$tmp/$$p.json; \
	done; \
	echo "analyze: --scale switch:100000 (10^5 blocks)"; \
	$(BALIGN) analyze --scale switch:100000 --format json \
	  > $$tmp/scale.json; \
	$(DUNE) exec --no-print-directory test/tools/check_trace.exe -- \
	  --analyze $$tmp/scale.json; \
	echo "analyze: --profile static alignment smoke"; \
	$(BALIGN) align examples/programs/collatz.mc --input 40 \
	  --profile static > /dev/null; \
	echo "analyze ok: reports validate and static training aligns"

# Machine-readable bench trajectory for CI: one small workload, JSON
# artifact validated structurally before it is uploaded.
bench-json: build
	$(BALIGN) bench com --json BENCH.json --jobs 2 > /dev/null
	$(DUNE) exec --no-print-directory test/tools/check_trace.exe -- --bench BENCH.json
	@echo "bench-json ok: BENCH.json written"

# Daemon robustness gate (docs/SERVING.md): replay 1000 mixed
# good/faulty requests at an in-process `balign serve` loop, re-certify
# every ok layout client-side, and demand zero uncertified responses
# and zero crashes.  The serve-soak/1 JSON artifact is validated
# structurally before CI uploads it.
serve-soak: build
	$(DUNE) exec --no-print-directory test/tools/serve_soak.exe -- \
	  --requests 1000 --out SERVE_SOAK.json
	$(DUNE) exec --no-print-directory test/tools/check_trace.exe -- \
	  --serve-soak SERVE_SOAK.json
	@echo "serve-soak ok: SERVE_SOAK.json written"

# Rewrite the committed results/ files and print every section: each
# suite runs once, and report.txt holds every section but the
# wall-clock table2.
report: build
	$(BALIGN) report table2 csv
	@cat results/report.txt

clean:
	$(DUNE) clean
