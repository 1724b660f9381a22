GO ?= go

.PHONY: check vet build test race flake bench-test bench-smoke bench-json bench-diff bench-pairs obs-smoke trace-smoke

## check: everything CI runs — vet, build, tests, race detector, the flake
## gate, the bench/ module's own tests, bench smoke, the observability
## pipeline smoke (lfptop + Prometheus export), and the flight-recorder smoke
## (lfptrace timelines + trace-ledger conservation)
check: vet build test race flake bench-test bench-smoke obs-smoke trace-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the concurrency suite — the sharded datapath, flow cache, and
## worker pools are exercised under the race detector
race:
	$(GO) test -race ./internal/...

## flake: the packages whose tests drive the controller daemon, 20 runs
## each, so an ordering bug that fails one run in 20 fails the target; and
## the two cpumap GRO parity tests, whose result once hung on where a
## kthread wakeup split a producer's poll
flake:
	$(GO) test -count=20 . ./internal/core ./internal/k8s
	$(GO) test -count=20 -run TestTable6Shape ./internal/testbed
	$(GO) test -count=20 -run TestCpumapSweepSpeedupAndGROParity ./internal/testbed
	$(GO) test -race -count=10 -run TestCpumapGROCoalesceParity ./internal/fpm

## bench-test: the bench/ module's tests (its own go.mod), including the
## five-workload smoke run
bench-test:
	cd bench && $(GO) test ./...

## bench-smoke: a fast pass over the real-execution forwarding benchmarks
## (including the 4-shard parallel scaling bench and the batched fast
## path), plus a 1-iteration run of the ebpf/netdev/kernel micro-benchmarks
## (GRO coalescing, the batched TC runner, the cpumap producer/kthread
## benches, and the AF_XDP redirect-flush / forward-loop benches live in
## internal/ebpf and internal/kernel) so batch-path, cpumap, and XSK ring
## regressions fail fast; the steer micro-benches (table pick hot path and
## controller observe loop) ride along in internal/steer; no full -bench=.
## run needed. The sockmap micro-benches (established-flow hit, full-demux
## miss, socket-to-socket splice) ride along in internal/kernel. The
## benchmarks where bytes dominate ride along too: the GRO on/off pairs at
## 128 B and at one MSS (BenchmarkRealLinuxGRO*), the checksum at 20/64/1448
## B and the 16 x 1448 B GSO split (internal/packet), the test pinning zero
## allocations per forwarded supersegment (forward, TC redirect, unresolved
## neighbour), and the seed corpora of every fuzz target (GSO into the
## original frames, the split, the checksum, the netfilter evaluator, the
## flat FIB against the two-trie walk).
## The lock-free read side rides along as well: the gateway chain at 1 /
## 100 / 500 / 10 000 rules for a clean miss and a mid-chain hit, the
## 100-rule chain in parallel, and the chain classifier's build at 100 / 500
## / 10 000 rules with its index_bytes (internal/netfilter), the FIB lookup
## serial and parallel and the FIB snapshot rebuild at 50 / 1 000 / 10 000
## routes (internal/fib), the parallel neighbour lookup (internal/neigh),
## and the command-alone churn step (internal/shell, allocs/op is the
## figure). The controller's reconcile rides along too (internal/core): one
## command through a running controller up to its Sync fence, topology-neutral
## (ip route add/del) and topology-changing (iptables -I/-D FORWARD), on the
## 50-route router and the 1000-route, 40-interface one; ns/op and allocs/op
## are the figures.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkRealForward|BenchmarkRealLinuxFPFastPath|BenchmarkRealLinuxGRO' -benchtime 100x -benchmem .
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/ebpf/ ./internal/netdev/ ./internal/kernel/ ./internal/steer/ ./internal/packet/ ./internal/netfilter/ ./internal/fib/ ./internal/neigh/ ./internal/shell/ ./internal/core/
	$(GO) test -run TestGROSupersegmentAllocs -count 1 ./internal/kernel/
	$(GO) test -run Fuzz -count 1 ./internal/packet/ ./internal/netfilter/ ./internal/fib/

## obs-smoke: one lfptop frame (drop reasons + ring buffer + stage latency,
## with the Prometheus snapshot appended) and a linuxfpd run with -metrics,
## so the live view and both exporters stay wired end to end
obs-smoke:
	$(GO) run ./cmd/lfptop -once -metrics > /dev/null
	$(GO) run ./cmd/linuxfpd -metrics < /dev/null > /dev/null

## trace-smoke: one lfptrace pass in both table and JSON form — lfptrace
## exits nonzero if the trace ledger fails to conserve (every sampled chain
## must end in exactly one terminal verdict with no live chains left), so
## this is the end-to-end conservation gate, and `lfptop -once -json` keeps
## the machine-readable live view wired
trace-smoke:
	$(GO) run ./cmd/lfptrace > /dev/null
	$(GO) run ./cmd/lfptrace -shift 0 -json > /dev/null
	$(GO) run ./cmd/lfptop -once -json > /dev/null

## bench-json: regenerate BENCH_fastpath.json, BENCH_gro.json,
## BENCH_cpumap.json, BENCH_obs.json, BENCH_afxdp.json,
## BENCH_specialize.json, and BENCH_steer.json — the machine-readable
## batching x JIT sweep plus
## the pps-vs-cores curve for the fast path, the GRO-on/off workload x batch
## sweep for the slow path, the cpumap CPU fan-out sweep, the observability
## off/on overhead sweep across ring wakeup batches, the AF_XDP three-plane
## race (slow path vs in-kernel XDP vs userspace socket, wakeup and
## busy-poll), and the JIT specialization A/B (generic fused vs Load-time
## config-folded across router/bridge/gateway/ACL, with re-specialization
## latency under a config-churn storm), and the closed-loop steering sweep
## (static splitmix64 hash vs adaptive steer.Table placement over a zipf
## workload at 1/2/4/8 cpumap CPUs), and the socket-layer fast path race
## (full stack vs sockmap splice vs sockmap+L7 verdict at 1k/100k/1M
## concurrent flows)
bench-json:
	$(GO) run ./cmd/lfpbench -exp fastpath -fastpath-json BENCH_fastpath.json
	$(GO) run ./cmd/lfpbench -exp gro -gro-json BENCH_gro.json
	$(GO) run ./cmd/lfpbench -exp cpumap -cpumap-json BENCH_cpumap.json
	$(GO) run ./cmd/lfpbench -exp obs -obs-json BENCH_obs.json
	$(GO) run ./cmd/lfpbench -exp afxdp -afxdp-json BENCH_afxdp.json
	$(GO) run ./cmd/lfpbench -exp specialize -specialize-json BENCH_specialize.json
	$(GO) run ./cmd/lfpbench -exp steer -steer-json BENCH_steer.json
	$(GO) run ./cmd/lfpbench -exp sockmap -sockmap-json BENCH_sockmap.json

## bench-diff: regenerate every BENCH_*.json into a scratch dir and compare
## each against the committed baseline with cmd/benchdiff; any headline
## metric (pps/gain up, cycles/latency/drops down) moving >15% in the wrong
## direction fails the target. Run before committing perf-sensitive changes.
BENCH_TMP := /tmp/linuxfp-bench-diff
bench-diff:
	rm -rf $(BENCH_TMP) && mkdir -p $(BENCH_TMP)
	$(GO) build -o $(BENCH_TMP)/benchdiff ./cmd/benchdiff
	$(GO) run ./cmd/lfpbench -exp fastpath -fastpath-json $(BENCH_TMP)/BENCH_fastpath.json
	$(GO) run ./cmd/lfpbench -exp gro -gro-json $(BENCH_TMP)/BENCH_gro.json
	$(GO) run ./cmd/lfpbench -exp cpumap -cpumap-json $(BENCH_TMP)/BENCH_cpumap.json
	$(GO) run ./cmd/lfpbench -exp obs -obs-json $(BENCH_TMP)/BENCH_obs.json
	$(GO) run ./cmd/lfpbench -exp afxdp -afxdp-json $(BENCH_TMP)/BENCH_afxdp.json
	$(GO) run ./cmd/lfpbench -exp specialize -specialize-json $(BENCH_TMP)/BENCH_specialize.json
	$(GO) run ./cmd/lfpbench -exp steer -steer-json $(BENCH_TMP)/BENCH_steer.json
	$(GO) run ./cmd/lfpbench -exp sockmap -sockmap-json $(BENCH_TMP)/BENCH_sockmap.json
	@for b in fastpath gro cpumap obs afxdp specialize steer sockmap; do \
		$(BENCH_TMP)/benchdiff -old BENCH_$$b.json -new $(BENCH_TMP)/BENCH_$$b.json || exit 1; \
	done
	@rm -rf $(BENCH_TMP)

## bench-pairs: the paired comparison bench/README.md prescribes for a claimed
## gain, in one command: `make bench-pairs BASE=<rev> [PAIRS=10]
## [WORKLOAD=<name>] [BENCH_SECONDS=10]`. BASE is exported (git archive, so no
## worktree is left registered in .git) into .bench_build/pairs/base; both
## sides are built by their own bench/run.sh; seeds 1..PAIRS run in A B B A
## order (A = BASE, B = this tree; all five workloads unless WORKLOAD names
## one), each side into its own -out; -compare then judges B against A with
## BENCHMARK.json's bounds and fails on any row that is worse.
PAIRS ?= 10
BENCH_SECONDS ?= 10
PAIRS_DIR := .bench_build/pairs
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [PAIRS=10] [WORKLOAD=<name>] [BENCH_SECONDS=10]"; exit 2; }
	rm -rf $(PAIRS_DIR) && mkdir -p $(PAIRS_DIR)/base $(PAIRS_DIR)/a $(PAIRS_DIR)/b
	git archive $(BASE) | tar -x -C $(PAIRS_DIR)/base
	@set -e; out=$$PWD/$(PAIRS_DIR); \
	side() { echo "seed $$3: $$1"; (cd $$1 && bash bench/run.sh $(if $(WORKLOAD),--workload $(WORKLOAD)) --seed $$3 --seconds $(BENCH_SECONDS) -out $$2 > /dev/null); }; \
	for s in $$(seq 1 $(PAIRS)); do \
		if [ $$((s % 2)) = 1 ]; then side $$out/base $$out/a $$s; side . $$out/b $$s; \
		else side . $$out/b $$s; side $$out/base $$out/a $$s; fi; \
	done; \
	bash bench/run.sh -compare $$out/a/runs.jsonl $$out/b/runs.jsonl
