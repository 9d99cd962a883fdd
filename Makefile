# CI entry points. `make ci` is what every PR must pass: vet, build, the
# full test suite, and the race detector over the concurrent engine paths
# and the commands (internal packages run reduced-scale worlds, so the race
# pass stays fast; the commands' own tests, such as tracestat's journal
# passes and originscan's trace flush, run under it too).
# Beside it: fuzz-smoke (CI's fuzz-smoke job); bench-e2e / bench-compare, the
# repository's one benchmark; bench-telemetry / bench-trace, the two <= 5 %
# overhead records (CI's overhead job runs the gated one); and two by-hand
# paper-scale runs, bench-scale1 and audit-fullscale.

GO ?= go

.PHONY: all ci vet build test race audit-fullscale fuzz-smoke bench-e2e bench-compare bench-telemetry bench-trace bench-scale1

all: ci

ci: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./cmd/...

# The streaming-worldgen audit at paper scale (Scale 1.0, 68.6M machines).
# On a 2-core Xeon with GOMEMLIMIT unset the build takes ≈ 6 s and peaks at
# ≈ 1.65 GiB RSS for a 1.4 GiB live heap; the whole target ≈ 10 s. The test
# logs those figures (build time, bytes allocated, live heap, FIB size, peak
# RSS) and the world digest. Plain `go test ./...` runs the same assertions
# at Scale 0.01; this target sets the variable the test checks to add the
# full-scale build.
audit-fullscale:
	WORLD_AUDIT_FULLSCALE=1 $(GO) test -run 'TestStreamingFullScaleAudit' -v -timeout 30m ./internal/world/

# Ten seconds of each of the sixteen fuzz targets. Eight are decoders,
# differential against the pre-rewrite implementations kept in the packages'
# oracle_test.go files (for ip.ParseAddr, in parse_test.go, with net/netip
# behind it; for the packet decoder, the allocating form against the
# stack-scratch one plus an independent checksum verifier): a hostile
# simulated server must not panic a grabber or change its failure class, a
# hostile dataset file or address must not panic cmd/report or load as
# something the Token-stream decoder would have refused, and whatever bytes a
# sink hands the sweep back must not panic packet.DecodeTCP4Into/6Into or be
# accepted with a checksum that does not verify. The ninth holds the fabric's
# typed probe path to its byte path: whatever target, time, probe count and
# scan a sweep hands ProbeBatch, it answers as the Send loop does. The tenth
# holds the grab's typed handshake to the bytes it is read from: whatever
# host-server key, IPv4 or IPv6 host, protocol, accepting verdict and TLS
# client key, one fresh byte exchange with that host ends in the table entry
# Handshake answers for the host's software class. The eleventh holds the
# spill store's segment reader to its contract: whatever bytes an ORSEG003
# segment file holds (fixed-width rows whose banner field indexes the owning
# result's dictionary; no banner text in the frame), the merge gets rows or
# an error, never a panic, a row past the file's bytes or a banner index past
# the dictionary, and a segment the writer produced decodes to the rows it
# was written from.
# The twelfth holds the seal's radix sort to the stable-sort oracle on
# fuzzed address columns (duplicates, mixed families, keys differing in one
# byte). The thirteenth feeds cmd/originscan's -hitlist loader hostile
# target files: no panic, every target round-trips through String(), and an
# error names the line it failed on. The fourteenth feeds the pcap reader
# (zmapsim -pcap's capture format) hostile files: packets then io.EOF or an
# error, never a panic, and what it read rewrites through the Writer
# unchanged. The fifteenth feeds cmd/tracestat hostile flight-recorder
# journals, seeded with a study's journal, the same journal torn mid-way
# through its final line (a killed run's last write) and two cyclic span
# trees: the reader fails or every pass returns, with no panic and no
# endless walk down a cyclic span tree. The sixteenth holds the dataset
# decoder's look-ahead to its in-line decoder: whatever bytes it reads, the
# scans it decodes on workers give the dataset, or the error at the offset,
# that decoding every scan in line gives.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadResponse -fuzztime 10s ./internal/httpwire/
	$(GO) test -run xxx -fuzz FuzzReadRequest -fuzztime 10s ./internal/httpwire/
	$(GO) test -run xxx -fuzz FuzzReadID -fuzztime 10s ./internal/sshwire/
	$(GO) test -run xxx -fuzz FuzzHandshakeReader -fuzztime 10s ./internal/tlslite/
	$(GO) test -run xxx -fuzz FuzzReadJSON -fuzztime 10s ./internal/results/
	$(GO) test -run xxx -fuzz FuzzLookaheadMatchesInLine -fuzztime 10s ./internal/results/
	$(GO) test -run xxx -fuzz FuzzParseAddr -fuzztime 10s ./internal/ip/
	$(GO) test -run xxx -fuzz FuzzIsSorted -fuzztime 10s ./internal/ip/
	$(GO) test -run xxx -fuzz FuzzDecodeTCP -fuzztime 10s ./internal/packet/
	$(GO) test -run xxx -fuzz FuzzProbeBatchMatchesSend -fuzztime 10s ./internal/fabric/
	$(GO) test -run xxx -fuzz FuzzGrabTypedMatchesExchange -fuzztime 10s ./internal/fabric/
	$(GO) test -run xxx -fuzz FuzzSegmentReader -fuzztime 10s ./internal/results/
	$(GO) test -run xxx -fuzz FuzzSortByAddr -fuzztime 10s ./internal/results/
	$(GO) test -run xxx -fuzz FuzzReadHitlist -fuzztime 10s ./cmd/originscan/
	$(GO) test -run xxx -fuzz FuzzPcapReader -fuzztime 10s ./internal/pcap/
	$(GO) test -run xxx -fuzz FuzzJournal -fuzztime 10s ./cmd/tracestat/

# The repository's benchmark (bench/README.md): four workloads, seven
# end-to-end metrics, result in bench/out/result.json. To compare two
# commits, run bench-e2e on each, keep the two result files, and hand them
# to bench-compare (exit 1 when any metric is worse than its bound).
bench-e2e:
	$(GO) run ./bench

bench-compare:
	$(GO) run ./bench -compare $(BASE) $(CHANGE)

# Telemetry overhead on the sweep hot path: the same full sweep with a nil
# metric bundle vs a live registry. The enabled/nil ratio is the number the
# tentpole budget caps at 5%; results land in BENCH_telemetry.json.
bench-telemetry:
	$(GO) test -run xxx -bench 'BenchmarkSweepTelemetry' -benchtime 2s -benchmem ./internal/zmap/ | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench BenchmarkSweepTelemetry -benchtime 2s ./internal/zmap/" \
	        -note "Full 2^14-address sweep against a null sink. Nil = telemetry disabled (one pointer check per 4096-target batch); Enabled = live registry receiving batched delta flushes. Overhead budget: enabled <= 5% over nil." \
	        -out BENCH_telemetry.json

# Hierarchical tracing overhead on the sweep hot path: the same full sweep
# with tracing disabled (nil registry → inert spans) vs enabled (scan span,
# bounded batch exemplars, span commit). benchjson's ratio gate fails the
# target when the enabled run exceeds nil by more than 5% — the observability
# tentpole's overhead contract, enforced by CI's overhead job. Results land in
# BENCH_trace.json.
bench-trace:
	$(GO) test -run xxx -bench 'BenchmarkSweepTrace' -benchtime 2s -count 3 -benchmem ./internal/zmap/ | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench BenchmarkSweepTrace -benchtime 2s -count 3 ./internal/zmap/" \
	        -note "Full 2^14-address sweep against a null sink, min of 3 runs per variant. Nil = tracing disabled (nil registry: inert span, inert batch tracer); Enabled = live registry with a scan span and bounded sweep_batch exemplar sampling (first 32 + every 1024th batch). Gate: enabled/nil ns/op <= 1.05." \
	        -gate-num BenchmarkSweepTraceEnabled -gate-den BenchmarkSweepTraceNil -gate-max 1.05 \
	        -out BENCH_trace.json

# Scale-0.1 and Scale-1.0 studies under the spill-to-disk result store,
# with the result budget fixed at 128 MiB. Each benchmark fails if its
# scan never spills or if the process peak RSS (recorded as peak-rss-MiB)
# exceeds its ceiling — 3 GiB at Scale=0.1 (raised from PR 7's 2 GiB for
# the 128-bit address widening), 16 GiB at Scale=1.0 where the streamed
# world and the per-scan reply log dominate. One run per scale is the
# measurement (-benchtime 1x; the full-scale study takes on the order of
# an hour on the single-core container).
bench-scale1:
	$(GO) test -run xxx -bench 'BenchmarkScale1Study|BenchmarkScale1FullStudy' -benchtime 1x -benchmem -timeout 150m . | \
	    $(GO) run ./cmd/benchjson \
	        -command "go test -run xxx -bench 'BenchmarkScale1Study|BenchmarkScale1FullStudy' -benchtime 1x -benchmem -timeout 150m ." \
	        -note "Scale1Study: Scale=0.1 study (US1/HTTP/1 trial, ~5.8M-host streaming world) through the full experiment path with the spill store under a fixed 128 MiB result budget; peak-rss-MiB is the process VmHWM high-water mark (must stay under the 3 GiB ceiling — raised from 2 GiB for the 128-bit address widening; the in-memory store would peak well above it). Scale1FullStudy: the same study at Scale=1.0 — the ROADMAP's full-IPv4-scale milestone, ~68.6M hosts and ~53M L7 handshakes on the grab fast path, with no Go memory limit set; RSS ceiling 4 GiB over the ≈1.4 GiB live streamed world (FIB 986 MiB) and the fabric's plan tables. spill-segments/spilled-MiB/merge-* are the spill store's own counters; sealed bytes are identical to the in-memory path (differential tests pin this)." \
	        -out BENCH_scale1.json
