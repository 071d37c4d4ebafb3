# Tooling entry points. `make check` is the CI gate: it must stay green
# on every commit.

.PHONY: all build test examples micro bench-engine bench-engine-smoke \
        bench-fwd bench-fwd-smoke fuzz-quick \
        fuzz-soak campaign-quick workload-smoke workload-bench arena \
        arena-smoke serial-forked perfbench-smoke cli-bad-input ab check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Every example binary must build *and* run to completion: each is an
# executable piece of documentation, and a demo that crashes is a bug.
examples:
	dune build examples
	dune exec examples/quickstart.exe
	dune exec examples/collective_demo.exe
	dune exec examples/nack_anatomy.exe
	dune exec examples/failure_fallback.exe
	dune exec examples/fat_tree_demo.exe

# Telemetry/data-plane hot paths; the histogram record budget is 100 ns.
micro:
	dune exec bench/main.exe -- micro

# Engine/data-plane benchmark (DESIGN.md §10/§15): events/sec, minor
# words/event, campaign wall-clock and the timing-wheel hit ratio,
# written to BENCH_engine.json.  Fails unless the incast run processes
# exactly 330,667 events (the trace fingerprint).  Compare numbers only
# against a same-box run of the other tree.
bench-engine:
	dune exec bench/engine_bench.exe -- --out BENCH_engine.json

# Smoke variant for CI: tiny iteration counts, no timing gate — only
# asserts the harness runs, replays the 756-event smoke incast trace and
# emits valid JSON with the expected keys.
bench-engine-smoke:
	dune exec bench/engine_bench.exe -- --smoke --out _build/BENCH_engine.smoke.json

# Forwarding fast path in isolation (DESIGN.md §11): a single switch's
# steady-state packets/sec and words/packet through the compiled
# per-destination port arrays.  Fails if the steady-state loop touches
# a hashtable even once (the zero-probe guarantee) or allocates a single
# minor word.
bench-fwd:
	dune exec bench/engine_bench.exe -- --fwd-only --out BENCH_fwd.json

bench-fwd-smoke:
	dune exec bench/engine_bench.exe -- --fwd-only --smoke --out _build/BENCH_fwd.smoke.json

# Randomized fault-injection sweep with invariant oracles (DESIGN.md §8).
# 200 scenarios x every scheme normally finishes in ~2 s; the wall budget
# stops generating new scenarios if a slow machine would blow the CI
# slot, so coverage degrades gracefully instead of timing out.
fuzz-quick:
	dune exec bin/themis_fuzz_cli.exe -- quick --specs 200 --budget-s 60

fuzz-soak:
	dune exec bin/themis_fuzz_cli.exe -- soak

# Small Fig. 5 slice over the fork pool, then diffed against the frozen
# baseline (tolerance bands + Themis<=AR<=ECMP shape ordering).  --force
# so CI always measures the current tree instead of trusting the cache.
campaign-quick:
	dune exec bin/themis_campaign_cli.exe -- run --preset quick --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset quick

# LB-scheme arena (DESIGN.md §13): rival sprayers (REPS, PRIME,
# Sprinklers, Spritz) against Themis and the baselines across the
# adversarial path scenarios, gated against the frozen baseline.  The
# gate also asserts zero fuzz-oracle violations per cell and zero
# out-of-order arrivals for Sprinklers on the symmetric fabric.
arena:
	dune exec bin/themis_campaign_cli.exe -- run --preset arena --workers 4 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset arena
	dune exec bin/themis_campaign_cli.exe -- report --preset arena

# CI slice: 3 schemes x 2 scenarios.
arena-smoke:
	dune exec bin/themis_campaign_cli.exe -- run --preset arena-smoke --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset arena-smoke

# Regenerate every paper figure/study/fuzz campaign and refreeze the
# committed baselines (run after an intentional model change).
campaign-refreeze:
	for p in quick fig1 fig5a incast ablation fuzz mix load-sweep failures arena arena-smoke; do \
	  dune exec bin/themis_campaign_cli.exe -- run --preset $$p --workers 4 --force --quiet && \
	  dune exec bin/themis_campaign_cli.exe -- freeze --preset $$p || exit 1; \
	done

# Serial and forked campaign runs must agree byte for byte.  The
# ablation preset is the gate for the run boundary (DESIGN.md §7): each
# of its jobs builds 2-5 fabrics, so state one build leaves behind for
# the next shows up as a diff between the two stores.
SERIAL_FORKED = _build/serial-forked
serial-forked:
	rm -rf $(SERIAL_FORKED)
	dune exec bin/themis_campaign_cli.exe -- run --preset ablation --workers 1 --force --quiet --store $(SERIAL_FORKED)/w1
	dune exec bin/themis_campaign_cli.exe -- run --preset ablation --workers 2 --force --quiet --store $(SERIAL_FORKED)/w2
	diff -r $(SERIAL_FORKED)/w1 $(SERIAL_FORKED)/w2
	@echo "serial-forked: OK"

# Production-workload gate (DESIGN.md §12): the mix scenario (websearch
# open-loop + allreduce overlay) and the failures scenario (link flaps,
# spine death and drop storms through Failure_script) over the fork
# pool, each gated against its frozen baseline, then the streaming
# bench's 50k-flow smoke asserting the O(active-flows) live high-water
# mark and full completion.
workload-smoke:
	dune exec bin/themis_campaign_cli.exe -- run --preset mix --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset mix
	dune exec bin/themis_campaign_cli.exe -- run --preset failures --workers 2 --force --quiet
	dune exec bin/themis_campaign_cli.exe -- gate --preset failures
	dune exec bench/workload_bench.exe -- --smoke --out _build/BENCH_workload.smoke.json

# Full streaming proof: 1M Poisson arrivals; memory must stay O(active).
workload-bench:
	dune exec bench/workload_bench.exe -- --out BENCH_workload.json

# The benchmark's own build (run.py builds it into .bench_build/ under
# the workspace profile), run on every workload at the tiny size, traced
# and untraced; fails unless each run is correct and emits exactly the
# metrics and units BENCHMARK.json names.  A few seconds.
perfbench-smoke:
	python3 perfbench/run.py --self-check

# Same-box A/B (not part of check): BASE (any git revision) against the
# working tree, PAIRS alternating perfbench runs of each BENCHMARK.json
# workload at its run_seconds, written to AB_OUT with each side's
# median, p25 and p75 and the pairs won.  AB_SEED picks a held-out
# seed, AB_TRACE=1 the traced per-layer run.
BASE ?= HEAD
PAIRS ?= 10
AB_SEED ?= 0
AB_TRACE ?= 0
AB_OUT ?= BENCH_ab.json
ab:
	python3 bench/ab.py --base $(BASE) --pairs $(PAIRS) --seed $(AB_SEED) \
	  --trace $(AB_TRACE) --out $(AB_OUT)

# Bad input on the command line must exit 2 with a message naming the
# field or name, never 0 (a silently ignored typo) or 125 (an uncaught
# exception): four cj1 job lines whose names do not resolve, seven whose
# sizes, fan-in or fabric counts cannot run, then a cp1, fz1 and wl1
# line each with a misspelled key, four fz1 and three wl1 lines whose
# fabric shape has a zero count or rate or is not a wirable fat tree,
# seven fz1 lines with one field out of range (ppcap, qf, jit, drop,
# dly, a flow start, a fault time), two cj1 fig5 lines with a DCQCN
# timer below 1 us, then out-of-range numeric flags of themis_cli.
CLI_BIN = _build/default/bin
cli-bad-input:
	dune build $(CLI_BIN)/themis_campaign_cli.exe $(CLI_BIN)/themis_fuzz_cli.exe \
	  $(CLI_BIN)/themis_workload_cli.exe $(CLI_BIN)/themis_cli.exe
	@want2() { "$$@"; rc=$$?; \
	  if [ $$rc -ne 2 ]; then echo "cli-bad-input: exit $$rc (want 2): $$*"; exit 1; fi; }; \
	exec_job() { want2 $(CLI_BIN)/themis_campaign_cli.exe exec --store _build/cli-bad-input "$$1"; }; \
	exec_job 'cj1;ablation;study=warp;seed=1'; \
	exec_job 'cj1;fig5;fab=eval8;scheme=warp;coll=allreduce;mb=1;ti=900;td=4;seed=11'; \
	exec_job 'cj1;arena;scheme=themis;scen=nope;seed=1'; \
	exec_job 'cj1;workload;wl=nope;scheme=themis;load=30;seed=1'; \
	exec_job 'cj1;incast;scheme=themis;fanin=0;mb=1;seed=3'; \
	exec_job 'cj1;incast;scheme=themis;fanin=2;mb=0;seed=3'; \
	exec_job 'cj1;fig1;tr=sr;mb=0;seed=7'; \
	exec_job 'cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=0;ti=900;td=4;seed=11'; \
	exec_job 'cj1;fig5;fab=ls:0:1:1:100;scheme=themis;coll=allreduce;mb=1;ti=900;td=4;seed=11'; \
	exec_job 'cj1;fig5;fab=ls:2:1:1:0;scheme=themis;coll=allreduce;mb=1;ti=900;td=4;seed=11'; \
	exec_job 'cj1;fig5;fab=ls:1:1:2:100;scheme=themis;coll=allreduce;mb=1;ti=900;td=4;seed=11'; \
	want2 $(CLI_BIN)/themis_campaign_cli.exe jobs --store _build/cli-bad-input --spec \
	  'cp1;name=quick;target=fig5;fab=eval8;tr=;schemes=ecmp+adaptive+themis;colls=allreduce;mb=1;dcqcn=900:4,10:50;fanins=;studies=;wl=;loads=;scen=sym;profile=quick;seeds=11'; \
	want2 $(CLI_BIN)/themis_fuzz_cli.exe replay \
	  'fz1;seed=5;shape=ls:4:4:2:100:100:1254;tr=sr;qf=25;ppcap=9216;jit=1403;drop=0;corr=0;dup=254;dly=4062:19615;fmode=ecmp;dl=2000000000;schemes=ecmp+spray+ar+themis;flows=5>1:91722@80292,7>1:91722@59216;faults=;sspin=0:10'; \
	want2 $(CLI_BIN)/themis_workload_cli.exe describe --spec \
	  'wl1;seed=21;shape=ls:2:2:4:25:25:500;dist=websearch;arr=poisson;load=30;flows=120;colls=;faults=;dl=400000000;lod=40'; \
	fz1_shape() { want2 $(CLI_BIN)/themis_fuzz_cli.exe replay \
	  "fz1;seed=5;shape=$$1;tr=sr;qf=25;ppcap=9216;jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;schemes=ecmp;flows=5>1:91722@80292;faults="; }; \
	fz1_shape ls:4:4:2:0:100:1254; \
	fz1_shape ls:4:0:2:100:100:1254; \
	fz1_shape ft:3:100:1254; \
	fz1_shape ft:4:0:1254; \
	fz1_field() { want2 $(CLI_BIN)/themis_fuzz_cli.exe replay "$$(echo \
	  'fz1;seed=5;shape=ls:4:4:2:100:100:1254;tr=sr;qf=25;ppcap=9216;jit=0;drop=0;corr=0;dup=0;dly=0:0;fmode=ecmp;dl=2000000000;schemes=themis;flows=5>1:91722@80292;faults=' \
	  | sed "$$1")"; }; \
	fz1_field s/ppcap=9216/ppcap=0/; \
	fz1_field s/qf=25/qf=-3/; \
	fz1_field s/jit=0/jit=-5/; \
	fz1_field s/drop=0/drop=2000000/; \
	fz1_field s/dly=0:0/dly=5:-1/; \
	fz1_field s/@80292/@-5/; \
	fz1_field s/faults=/faults=16:-5:0/; \
	exec_job 'cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=1;ti=0;td=4;seed=11'; \
	exec_job 'cj1;fig5;fab=eval8;scheme=themis;coll=allreduce;mb=1;ti=900;td=-4;seed=11'; \
	wl1_shape() { want2 $(CLI_BIN)/themis_workload_cli.exe $$1 --spec \
	  "wl1;seed=21;shape=$$2;dist=websearch;arr=poisson;load=30;flows=10;colls=;faults=;dl=400000000"; }; \
	wl1_shape describe ls:2:2:4:0:25:500; \
	wl1_shape run ls:2:2:4:25:0:500; \
	wl1_shape run ls:2:0:4:25:25:500; \
	want2 $(CLI_BIN)/themis_cli.exe motivation --msg-mb=0; \
	want2 $(CLI_BIN)/themis_cli.exe motivation --msg-mb=-1; \
	want2 $(CLI_BIN)/themis_cli.exe incast --mb=0; \
	want2 $(CLI_BIN)/themis_cli.exe incast --fanin=0; \
	want2 $(CLI_BIN)/themis_cli.exe fattree -k 3; \
	want2 $(CLI_BIN)/themis_cli.exe fattree --mb=0; \
	echo "cli-bad-input: OK"

check: build test examples micro bench-engine-smoke bench-fwd-smoke fuzz-quick campaign-quick workload-smoke arena-smoke serial-forked perfbench-smoke cli-bad-input
	@echo "check: OK"

clean:
	dune clean
