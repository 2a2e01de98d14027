# Build / verify / bench entry points. Everything is stdlib-only Go; the
# toolchain is the only dependency.

GO ?= go

.PHONY: build test vet lint-engine-state lint-trace-schema lint-cluster-owners lint-cluster-copy lint-one-kernel lint-one-binding lint-options lint-graph-state lint-one-format lint-one-query lint-one-catalog race test-purego crash-test cluster-test fuzz verify bench bench-test bench-blas bench-sim bench-taskrt loc serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint-engine-state keeps the engines' per-run books in tables indexed by
# Task.ID()/Handle.ID() (dense by construction): no map keyed by a task or
# handle pointer, and none keyed by an id, may grow back in the files that hold
# engine state. The sim's ready tasks are one of those books, kept in the order
# they are taken (readyQueue, a bitmap over each task's rank in that order): a
# scan of them per pick may not grow back, nor a heap of them beside the
# bitmap. The simulated machine's routes are one dense table by node pair: a
# nested map of them may not grow back into internal/simhw.
# Both engines run the same two policies, ws and dmda: a sim-only policy name
# or a seeded draw may not come back into the engine, its config or codegen.
# A completion writes its own worker's observed totals: pool-wide totals that
# every completion adds to may not come back into the dmda dispatcher.
# The real engine's state lives in realRun and realWorker: a closure over it
# may not grow back in realengine.go. A worker counts its own successes: the
# shared pending count takes one add, realWorker.flush's, not one a task. A
# worker parks on its own slot and a push wakes the sleepers it needs: a global
# credit count beside the slots (creditSem, a credits() method) may not come
# back as a second wake path.
# A run's tables sized by the task count hold no pointers, so the collector
# neither scans them nor puts a write barrier on their stores: a deque slot is
# a task id (no atomic.Pointer[Task] in deque.go), dmda's estimate table holds
# codelet indices (no []*predEntry a task), and the seed list grows with its
# seeds (no []*Task with the capacity of the task table) — outside tests.
# A parked worker spins for one wake's cost before it blocks, yielding its P
# each round: that is the one yield loop in the engine (runtime.Gosched once in
# non-test internal/taskrt, inside parkSlot.sleep), and no other may grow back
# beside it.
# A real-engine worker observes a task's seconds into a buffer of its own
# (metrics.LocalHistogram), flushed with its resolved count: no shared
# *metrics.Histogram may come back into realengine.go. A task costs one clock
# read while its worker keeps going: the count of r.now() calls in
# realengine.go is pinned, so a second read a task cannot slip back in.
lint-engine-state:
	@! grep -nE 'map\[\*(Task|Handle)\]|map\[int\](int|bool|uint64|\*inflightRec)' internal/taskrt/simengine.go internal/taskrt/realengine.go internal/taskrt/taskrt.go internal/cluster/master.go
	@! grep -nE 'pickTaskIndex|range ready|readyItem|container/heap' internal/taskrt/simengine.go
	@! grep -rn 'map\[int\]map\[int\]' internal/simhw
	@! grep -nE '"(eager|heft|random)"|math/rand' internal/taskrt/simengine.go internal/taskrt/taskrt.go internal/codegen/gengo.go
	@! grep -nE 'totBusy|totCompleted' internal/taskrt/dispatch.go
	@! grep -nE '^\s+[a-zA-Z]+ := func\(' internal/taskrt/realengine.go
	@test "$$(grep -c 'pending\.Add' internal/taskrt/realengine.go)" -eq 1
	@! grep -nE 'creditSem|credits\(\)' internal/taskrt/*.go
	@! grep -n 'atomic.Pointer\[Task\]' internal/taskrt/deque.go
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'make\(\[\]\*Task, 0, len\([A-Za-z.]*tasks\)\)|make\(\[\]\*predEntry, len\(' internal/taskrt
	@test "$$(grep -rn --include='*.go' --exclude='*_test.go' 'runtime\.Gosched' internal/taskrt | wc -l)" -eq 1
	@awk '/^func /{f=$$0} /runtime\.Gosched/{print f}' internal/taskrt/dispatch.go | grep -q '^func (s \*parkSlot) sleep('
	@! grep -n '\*metrics\.Histogram\b' internal/taskrt/realengine.go
	@test "$$(grep -c 'r\.now()' internal/taskrt/realengine.go)" -eq 9

# lint-trace-schema keeps internal/trace saying each thing once: a Chrome
# event's args are trace.Event's own JSON encoding, so chrome.go spells none of
# its field names, and a Trace holds one event list, so neither it nor the
# Shard that flushes into it has a second storage arm.
lint-trace-schema:
	@! grep -nE '"(attempt|parents|transfer|bytes|from|node)"' internal/trace/chrome.go
	@! grep -n 'blocks' internal/trace/trace.go internal/trace/shard.go

# lint-cluster-owners keeps each fact of the cluster engine in one place: the
# run loop alone writes a node's liveness (no atomic hand-off to a heartbeat
# that keeps its own copy, no up/down verdicts arriving as events), an
# invocation is one record from dispatch to outcome, and a fault plan holds
# failures only (a worker's slowdown is WorkerConfig.Delay).
lint-cluster-owners:
	@! grep -nE 'sync/atomic|forcedDown|evNodeUp|evNodeDown' internal/cluster/master.go
	@! grep -rnE 'type (outbound|pendingExec) ' internal/cluster
	@! grep -nE 'Delay|DelaysForUnit' internal/taskrt/fault.go

# lint-cluster-copy keeps a tile crossing the cluster link without being
# wrapped: the engine's files write a frame from the payload (messageWriter) and
# never build one (EncodePayload) or know its header, and proto.go holds one
# frame writer and one frame reader — frameMatrix is named by its definition,
# layFrame and messageReader.frame; matrixHeader by its definition, frameLen, and
# that reader (its shape scratch and its two length checks).
lint-cluster-copy:
	@! grep -nE 'EncodePayload\(|matrixHeader|frameMatrix' internal/cluster/master.go internal/cluster/stream.go internal/cluster/worker.go
	@test "$$(grep -c frameMatrix internal/cluster/proto.go)" -eq 3
	@test "$$(grep -c matrixHeader internal/cluster/proto.go)" -eq 5

# lint-one-kernel keeps internal/blas at one register tile per host, its kernel
# reading A in place, and names every assembly routine beside it: the TEXT list
# of the assembly is exactly microAVX2, the 6×8 tile of the AVX2 family,
# microAVX512, the 8×16 tile of the AVX-512 family, the B packs' dealAVX2
# (columns) and transpose4AVX2 (rows), the left solve's elimAVX2 (a row at a
# time), the right solve's base case — solve16AVX512 in the AVX-512 family
# (sixteen rows per pass, transposed in ZMM registers), and solve8AVX2 in the
# AVX2 one (eight rows, transposed through transpose4AVX2), the portable family
# solving every row in place — and cpuid and xgetbv. A new routine is added
# here on purpose, and one that has lost its last caller leaves the list with
# its body. Plus one call site of the tile's kernel in pack.go, and one A pack
# there, the zero-padded tail strip. The kernel family is one value: host, the
# last of families(), is the package's only kernel state. No line of the
# package, tests included, assigns host or one of its fields (a test builds the
# family it needs), and none of the six package variables it replaced (tile,
# packFour, dealCols, solveStrips, eliminate, microKernelName) is declared at
# package level again.
kernel_vars = tile|packFour|dealCols|solveStrips|eliminate|microKernelName
lint-one-kernel:
	@test "$$(grep -o '^TEXT ·[A-Za-z0-9]*' internal/blas/microkernel_amd64.s | sort | tr '\n' ' ')" = "TEXT ·cpuid TEXT ·dealAVX2 TEXT ·elimAVX2 TEXT ·microAVX2 TEXT ·microAVX512 TEXT ·solve16AVX512 TEXT ·solve8AVX2 TEXT ·transpose4AVX2 TEXT ·xgetbv "
	@test "$$(grep -c 'kernel(' internal/blas/pack.go)" -eq 1
	@test "$$(grep -c 'packRows(a,' internal/blas/pack.go)" -eq 1
	@! grep -nE '^\s*([a-zA-Z_.]+, *)*host(\.[a-zA-Z]+)*(, *[a-zA-Z_.]+)* *[-+*/|&^]?=[^=]' internal/blas/*.go
	@! awk '/^var \($$/ { v = 1 } /^\)/ { v = 0 } v || /^var / { print FILENAME ":" FNR ": " $$0 }' internal/blas/*.go | grep -E ': (var +)?\s*($(kernel_vars))\b'

# lint-one-binding keeps one way from a task's payloads to a kernel's
# arguments, taskrt.Kernel1/2/3: no other program code asserts a payload's type,
# and the DGEMM payload struct that was a second convention stays gone.
lint-one-binding:
	@! git grep -nE '\.(Payload\([^)]*\)|Data\[[^]]*\])\.\(' -- internal cmd examples ':!*_test.go' ':!internal/taskrt/codelet.go'
	@! git grep -n GemmPayload -- '*.go'

# lint-options keeps each configuration struct to the values some program sets:
# the seventeen that no caller needed stay constants, the worker lease TTL stays
# the registry's alone, and the backoff formula stays a function, not a
# RetryPolicy built to call it.
no_fields = ! awk '/^type $(2) struct/,/^}/ { print FILENAME ":" FNR ":" $$0 }' $(1) | grep -E ':[0-9]+:[[:space:]]+($(3))[[:space:]]'
lint-options:
	@$(call no_fields,internal/taskrt/fault.go,RetryPolicy,BackoffBase|BackoffCap|WatchdogFactor)
	@$(call no_fields,internal/cluster/master.go,Config,Name|HeartbeatMisses|Straggler)
	@$(call no_fields,internal/codegen/codegen.go,ExecOptions,BlockSize|FlopsPerElement)
	@$(call no_fields,internal/codegen/gengo.go,GenOptions,PackageName)
	@$(call no_fields,internal/discover/discover.go,Options,LinkGBs|LinkUSec)
	@$(call no_fields,internal/server/server.go,Config,Repo|WorkerTTL)
	@$(call no_fields,internal/experiments/cluster.go,ClusterConfig,Slots)
	@! git grep -nwE 'StragglerConfig|DefaultWorkerTTL|lease-ttl' -- '*.go'
	@! git grep -nE 'RetryPolicy\{[^}]*\}\.' -- '*.go'

# lint-graph-state keeps a Task and a Handle to what their submitter wrote plus
# their id, because the edges, the submission history and every run's books are
# tables by id in the Graph, the Runtime and the engines, not fields or edge
# chunks, and keeps a Graph a value that any number of runs share, so no run
# lifecycle comes back on the Runtime and no Graph() hands out its parts with
# an error.
lint-graph-state:
	@$(call no_fields,internal/taskrt/codelet.go,Task,deps|dependents|attempt|estNanos|pred)
	@$(call no_fields,internal/taskrt/codelet.go,Handle,lastW|readers|resident|home)
	@! grep -rn --include='*.go' appendEdge internal
	@! grep -rnE --include='*.go' 'stateIdle|stateRunning|stateDone|submittable' internal/taskrt
	@! grep -rniw --include='*.go' --exclude='*_test.go' 'single-shot' .
	@! grep -rnE --include='*.go' '[[:alnum:]_]+, [[:alnum:]_]+, err :?= .*\.Graph\(\)' internal

# lint-one-format keeps everything pdlserved writes to disk in the journal's
# one record framing: a snapshot is a compacted journal and a bundle is that
# file, so no second framing, magic, file kind or archive format comes back,
# and only wal.go computes a checksum.
lint-one-format:
	@! grep -rnE --include='*.go' --exclude='*_test.go' 'archive/tar|snapshotMagic|snapshotState|readSnapshot|writeSnapshot|snapshot-%0' internal/registry cmd/pdlserved
	@test "$$(grep -rl --include='*.go' --exclude='*_test.go' 'hash/crc32' internal/registry)" = internal/registry/wal.go

# lint-one-query keeps internal/query at one evaluator: a filter set and a
# selector expression both run as a selector over the Q set, so no fluent
# narrowing method (nor Selector.Steps or Filters.Empty) comes back, and no
# file but New's walks the platform — a Q keeps that one walk.
lint-one-query:
	@! grep -nE 'func \(q \*Q\) (Filter|Class|Masters|Hybrids|Workers|WithArch|WithProp|WithPropValue|InGroup|ControlledBy|Head|First|TotalUnits)\(|func \(s \*Selector\) Steps\(|func \(f \*Filters\) Empty\(' internal/query/*.go
	@! awk '/^func / { fn = $$0 } /\.(Walk|AllPUs|FindPU)\(/ && fn !~ /^func New\(/ { print FILENAME ":" FNR ": " $$0 }' $$(ls internal/query/*.go | grep -v _test.go) | grep .

# lint-one-catalog keeps one copy of every fixed platform: the catalog is the
# PDL documents in internal/discover/platforms, so no .pdl.xml is committed
# anywhere else, and catalog.go builds none of them in Go — no builder chain,
# no device constructor, no calibration step. It reads git's index, so `git
# add` first.
lint-one-catalog:
	@! git ls-files '*.pdl.xml' | grep -v '^internal/discover/platforms/'
	@! grep -nE 'NewBuilder\(|GTX480\(\)|GTX285\(\)|calibrate' internal/discover/catalog.go

# The race subset covers the packages with real concurrency: the task
# runtime (work-stealing engine, fault tolerance), the trace shards and
# metrics instruments it updates from every worker, the performance models
# recorded from every worker while Save snapshots them, the dynamic
# descriptors, the parallel BLAS kernels, the registry/server/query stack
# behind pdlserved (copy-on-write snapshots, LRU query cache, shared query
# roots), and the cluster master/worker engine (event loop, per-node senders,
# per-node execute streams and their pending tables, heartbeats). A -race build
# leaves internal/blas's assembly out (the detector cannot see into it), so the
# tile kernels these packages' tasks run are instrumented Go and a missing
# dependency edge between two tile tasks still shows as a race. From
# internal/experiments it takes the serial-oracle tests, which run one graph on
# both real dispatchers and through the cluster master.
race:
	$(GO) test -race ./internal/taskrt/... ./internal/trace/... ./internal/metrics/... ./internal/perfmodel/... ./internal/dynamic/... ./internal/blas/... ./internal/registry/... ./internal/server/... ./internal/query/... ./internal/cluster/... ./internal/client/...
	$(GO) test -race -run '^TestSerialOracle' ./internal/experiments

# test-purego builds internal/blas without its AVX2/FMA assembly, so every
# packed product and factorization kernel — and the tiled factorizations of
# internal/experiments on top of them — runs on the portable micro-kernel that
# hosts without AVX2 get and that no test on an AVX2 host would otherwise reach.
test-purego:
	$(GO) test -tags purego ./internal/blas/... ./internal/experiments/...

# crash-test exercises the durability layer's recovery guarantees under the
# race detector: byte-granular truncation of a journal's last record and of a
# whole compaction, the fallback past a damaged image, the refusal of the old
# snapshot format, read-only degradation, bundle round-trips, and the
# HTTP-level restart, import and 503 contracts.
crash-test:
	$(GO) test -race -run 'CrashRecovery|TornAndCorrupt|AppendReplayTruncates|SnapshotRoundTrip|CorruptSnapshot|OldFormat|ReadOnly|FsyncdRecovery|Bundle|Import|Durable|JournalFailure|WALMetrics|DuplicateUpload' ./internal/registry/... ./internal/server/...

# cluster-test is the multi-process cluster smoke: it builds the real
# pdlserved + pdlworkerd binaries, registers two workers through the
# registry, runs a distributed tiled DGEMM master against them (verifying
# the merged cluster trace and the federated fleet metrics), and SIGKILLs
# one worker mid-flight to prove its tasks resubmit to the survivor with
# the numerical result intact. Set SMOKE_ARTIFACTS to a directory to keep
# the merged Chrome trace and the metrics snapshots (CI uploads them).
cluster-test:
	PDL_CLUSTER_SMOKE=1 PDL_SMOKE_ARTIFACTS=$(SMOKE_ARTIFACTS) $(GO) test -run TestClusterSmoke -v -timeout 300s ./internal/cluster/smoke

# fuzz runs a time-boxed exploration of the decoders that read untrusted
# bytes — the journal decoders (record, payload, image and replay: every byte
# pdlserved reads at start-up), the cluster payload frame decoder and
# both ends of the execute stream, the worker's request reader and the
# master's response reader, the query DSL, the PDL XML parser (seeded
# with the catalog's platform files; Marshal must be a fixed point of its
# own output), and the Cascabel frontend — the annotated-C parser (Print must
# be a fixed point of its own output) and the pragma parser (deterministic),
# both seeded with the annotated programs of the csrc and codegen tests — each
# on top of its committed seed corpus (which plain `go test` already replays).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/registry
	$(GO) test -run='^$$' -fuzz=FuzzDecodePayload -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzRequestReader -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzResponseReader -fuzztime=10s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzFilters -fuzztime=10s ./internal/query
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/pdlxml
	$(GO) test -run='^$$' -fuzz=FuzzParseProgram -fuzztime=10s ./internal/csrc
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/pragma

# bench-test vets and tests the benchmark, a Go module of its own that the
# root `go test ./...` does not reach. Its tests include the -smoke run: every
# workload once at toy size, each result verified — both tiled factorizations
# on the homogeneous and the skewed pool among them.
bench-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# verify is the tier-1 gate: build, full tests, vet, the engine-state,
# trace-schema, cluster-owner, cluster-copy, one-kernel, one-binding, options,
# graph-state, one-format, one-query and one-catalog lints,
# race subset, the portable-kernel build, crash/recovery suite, multi-process
# cluster smoke, benchmark tests.
verify: build test vet lint-engine-state lint-trace-schema lint-cluster-owners lint-cluster-copy lint-one-kernel lint-one-binding lint-options lint-graph-state lint-one-format lint-one-query lint-one-catalog race test-purego crash-test cluster-test bench-test

# bench runs the repo's one measuring pipeline (see benchmark/README.md):
# seven verified workloads, host-scaled medians; `bash benchmark/run.sh
# -compare A.json B.json` is the regression check.
bench:
	bash benchmark/run.sh

# bench-blas is the per-layer number without the benchmark module: the four
# Cholesky and the four LU tile kernels and the packed tile DGEMM at tile 128
# on strided views of a 1024 parent, GF/s of the kernel call alone; the right
# solve's base case alone on a 128×16 leaf of the same parent, GF/s (the layer
# under TrsmRLT, TrsmRU, Potrf and Getrf); the two B packs alone on the same
# views, GB/s (Cols and Rows); and the micro-kernels alone on L1-resident
# operands, each named by its tile and run on both A layouts: the installed
# tile (8x16 on AVX-512 hosts, 6x8 elsewhere) and, on AVX-512 hosts, the AVX2
# 6x8 kernel beside it. It records nothing; numbers that are compared come
# from `make bench`.
bench-blas:
	$(GO) test -run '^$$' -bench 'BenchmarkTileKernels|BenchmarkRightSolveBase|BenchmarkPack|BenchmarkMicroKernel' -count 5 ./internal/blas

# bench-sim times the simulated Figure 5 (DGEMM 8192/256, dmda, its three
# platforms) as graph build and run apart, and the whole figure with a build per
# series and with one build, µs and allocations per task each.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSimFigure5' -count 5 ./internal/experiments

# bench-taskrt times the dispatch-fork job on the real engine — SubmitBatch
# and Run of one no-op root and 19 999 no-op dependents on two workers — under
# ws and dmda, µs, allocations and bytes per task each; and the layer under
# dmda's share of it, one 20 000-task pushBatch on two workers, cold and warm
# models, ns per placed task.
bench-taskrt:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatchFork|BenchmarkDmdaPushBatch' -count 5 ./internal/taskrt

# loc prints the line count CHANGES.md quotes for simplicity PRs — tracked,
# non-test Go outside benchmark/ — in total and per package directory.
LOC_FILES = git ls-files '*.go' | grep -v -e _test.go -e '^benchmark/'
loc:
	@$(LOC_FILES) | xargs cat | wc -l
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[1] "/" p[2] : (n > 1 ? p[1] : "."); s[d] += $$1 } END { for (d in s) printf "%7d %s\n", s[d], d }' | sort -k2

# serve runs the registry service locally with the example platforms loaded.
serve:
	$(GO) run ./cmd/pdlserved -addr :8080 -preload internal/discover/platforms

clean:
	rm -rf .bench_build benchmark/out
