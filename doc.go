// Package crackstore is a from-scratch Go implementation of
// "Self-organizing Tuple Reconstruction in Column-stores" (Idreos, Kersten,
// Manegold; SIGMOD 2009): partial sideways cracking and every substrate it
// builds on.
//
// A column-store answers multi-attribute queries by reconstructing tuples
// from per-attribute columns — a join on tuple IDs that dominates query
// cost once selections stop being order-preserving. The paper's answer is
// sideways cracking: auxiliary two-column cracker maps M_AB (attribute A
// alongside attribute B) that are physically reorganized a little more by
// every query, so qualifying tuples of all needed attributes end up
// clustered and positionally aligned, making reconstruction a slice rather
// than a scattered gather. Partial sideways cracking materializes those
// maps lazily, chunk by chunk, so the structure adapts to the workload
// under a storage budget.
//
// The package exposes four interchangeable engines over the same relation
// and query model:
//
//	e := crackstore.Open(crackstore.Sideways, rel)
//	res, cost := e.Query(crackstore.Query{
//	    Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(10, 20)}},
//	    Projs: []string{"B", "C"},
//	})
//
// Engines: Scan (plain column-store, the oracle), SelCrack (selection
// cracking, CIDR 2007), Sideways (Section 3) and PartialSideways
// (Section 4). All support the same insert/delete API, and all ignore a
// delete of a key no tuple has; cracking engines merge updates lazily with
// the Ripple algorithm (SIGMOD 2007). The
// paper's yardsticks — presorted copies (internal/presort) and a presorted
// row store (internal/rowstore) — are read-only baselines that only the
// experiments build.
//
// All cracking engines share one kernel (internal/crack), and a query's
// write path pays only for the pieces it touches. Every crack — of a
// cracker column, a map, a chunk or span, a policy pivot, a replayed crack
// tape — is one two-ended block partition
// (Edelkamp and Weiß, "BlockQuicksort", ESA 2016): blocks scan inward from
// both ends of the piece, the positions of misplaced tuples are packed into
// two L1-resident buffers without branching, and the k-th misplaced tuple
// from the left swaps with the k-th from the right. The layout is the
// textbook two-pointer partition's and every misplaced tuple moves once,
// but no per-tuple branch depends on the data, so throughput does not
// collapse on random data the way a branchy two-pointer loop's does, and
// the head is read once. A range selection whose bounds fall into the same
// uncracked piece — always the case for the first query on a cold column —
// partitions the whole piece at one bound and the remainder at the other,
// the bound whose remainder looks smaller in a sample of the piece going
// first: the head is read about 1.25 times for a narrow range, tails are
// touched only where tuples swap, and nothing is allocated. A bound at an
// edge of the value domain ({MinInt64, inclusive} or {MaxInt64,
// exclusive}) cuts nothing: it lies at the start or the end of the pairs,
// so an unbounded range cracks in two at its other bound and keeps no edge
// boundary in the index. Pending
// insertions are merged in batches (one boundary walk and one piece-wise
// ripple per batch instead of one per tuple), and pending deletions are
// located by value (crack.Pairs.Locate) by reading only the pieces the
// query's bounds fall into. All fast paths are deterministic pure
// functions of (piece contents, operation), which preserves the alignment
// invariant sideways cracking depends on: maps that replay the same cracker
// tape stay physically identical. The kernel also turns that invariant
// into a saving. Maps at one tape cursor have equal heads and boundaries,
// so a crack can be decided once, on a leader's head, and applied to
// followers: crack.Pairs.CrackRangeWith reads the leader's head alone and
// applies every swap block and boundary to each follower. Ripple updates
// take followers the same way: RippleInsertBatch and RippleDeleteBatch
// decide where tuples land and leave from the leader's head values,
// boundaries and the positions alone, and move every column of the leader
// and of each follower by that one plan, an insert giving each follower
// tail values of its own. The precondition
// is that every follower has the leader's length, and its head values and
// boundaries or no head and no index at all (a tail the leader positions,
// which only its tail swaps); a length mismatch panics. In kernel Stats a
// follower counts only the tuples it moves (Moved), so crack_kernel_*
// still counts each move, and each head read once.
//
// # Map sets
//
// Section 4 of the paper defines partial sideways cracking as Section 3's
// operators run chunk-wise over value ranges, so Sideways and
// PartialSideways are two presets of one map store (internal/sideways). A
// set divides its domain into areas, each with its own cracker tape, and a
// map over one area is a chunk. Under partial maps a set keeps a chunk map
// H_A whose spans are the areas, fetched as queries need them. A fetched
// span leads its area for the area's whole life: it cracks under an index
// of its own, started from the H_A boundaries inside it, so it never moves
// a tuple across one and H_A's index and estimates stay as they were. Its
// chunks keep no head (Section 4.1 shows the copy is optional): each is a
// tail, gathered through the span's keys at the span's cursor, and costs
// half a map. Every tape entry of the area, crack, insert or delete, is
// decided once on the span's head and index and moves the tail of every
// chunk of the area with it, so the chunks never lag the span and a new
// one replays nothing. A span starts as a slice of H_A and costs no
// storage; a slice cannot grow or shrink, so just before its area's first
// insert or delete merges the span takes columns of its own, a clone of
// its head and its keys, which cost one map of its length. Under full maps
// a set has exactly one area, spanning the whole domain: its source is the
// base prefix in key order, so it needs no H_A, and a new map is cloned
// from that prefix at cursor 0 and replays the tape up to its siblings.
// The full maps one query creates there form a head group: they sit at one
// cursor and would hold equal heads, so the first owns the head and the
// index, and the others are tails (plain copies of their base columns)
// that follow it. A query that uses any map of a group replays the whole
// group, the owner leading, so a joint crack or ripple update moves one
// head and every tail. A group lasts until its maps are evicted: evicting
// an owner hands its head and index, uncopied, to the next map of its
// group. So a map has a head exactly when neither a span nor a group owner
// leads it. Every bounded predicate cuts the whole-domain area, so it logs
// every crack and aligns to its tape end, and with one area the eviction
// tie-break (set, area, tail) is (set, tail): the partial-map
// machinery reduces to full maps, layout included.
//
// Selection cracking is the third user of the store. Its cracker column
// C_A, (value, key) pairs (Section 2.2), is S_A's key map in a full-map
// store whose sets get no other map (Store.Keys, Store.KeysRO), so it has
// the sets' pending-update ledger, delete location and tape. SelCrack keeps
// its own plan: select on the primary predicate, rel_select of the rest on
// the base columns, and a gather through the keys. Its memory bound is the
// key maps plus each set's tape: at most one 80-byte entry per write-path
// selection, and one per merged insert or delete batch, beside up to two
// 56-byte index nodes per crack, so the tape grows at the order of the
// cracker index. Nothing truncates it yet.
//
// What does not depend on areas lives in mapset.go: the base side of a
// store (relation, insert/delete fan-out, the uniform selectivity
// fallback); each set's pending-update ledger, from which a
// query takes the insertions and deletions its predicate touches; the
// cracker tape and its replay, which is joint — the maps of one area a
// query needs are taken in cursor order, the one furthest behind replays
// alone until it reaches the next one's cursor, and from there they replay
// together, each crack decided once on one head; the planner, which picks
// the head predicate's set from the self-organizing histograms (H_A's index
// under partial maps, the most aligned head owner's under full maps) and gives
// every distinct tail attribute one slot; and the finish over a list of
// aligned windows {Lo, Hi, Head, Tails}, one per area. A conjunction runs
// select_create_bv / select_refine_bv / reconstruct over them; a
// disjunction reads whole areas and tests the head predicate by value on
// the window's head column, so no plan builds an A→A map. Reconstruct
// sizes each output column once, assigns each distinct projection once, and
// is the one place the store materializes an answer.
//
// A pending deletion is found by value in the maps of its area the query
// aligns anyway: their leader's head and their tails compared with the
// deleted row. Only
// a deleted tuple another tuple equals on every column the query aligns,
// and key joins, build the area's key chunk (tail = tuple keys) and find it
// by key. Either way the tape logs the same positions and the tuple keys,
// so layouts, tape and WAL are identical, and an un-fetched area's updates
// can be pushed back to pending.
//
// The storage manager evicts least-frequently-used with dynamic aging
// (Usage in mapset.go). A map's priority is its access count plus the
// store's age when it was last used, and the age is the priority of the
// last victim; ties go in name order, so a query stream always evicts the
// same victims. The paper's plain access count thrashes on its own Fig 9
// cycle (five query types wanting five maps under a budget of three): each
// batch's new chunks, used once, are evicted a query after they are
// created, while the chunks of batches that have ended keep their high
// counts and their place. Aging lets a structure nobody uses be overtaken
// within a few evictions, and on that cycle cuts the chunk tuples
// materialized by about a quarter. A query pins every existing map it reads
// in the areas it resolved before it creates any, so making room never
// evicts what the same query reads next. Evicting an area's last map
// un-fetches the area, in both presets: its tape is forgotten, its
// updates go back to pending and its span's own columns are released. A
// tail without a head, a chunk or a map that follows its group owner,
// costs half its tuples; every other map costs its tuples, a span with
// columns of its own its length, and the store's piece count counts each
// index once, not once per map it positions. Room is made under the budget
// before anything grows: a new map, the columns a span takes at its area's
// first update, and a replay's ripple inserts. New maps and columns are
// freshly allocated, an evicted group owner's head and index pass to the
// next map of its group, and otherwise an evicted map's columns belong to
// the garbage collector: nothing is recycled by hand. Kernel
// counters of evicted structures are folded into a store-level total, so
// crack_kernel_* never runs backwards.
//
// # Adaptive cracking policies
//
// Plain cracking converges only as fast as the workload lets it: every
// boundary comes from a query bound, so the sequential sweeps and
// zoom-ins interactive exploration actually produces leave one huge
// uncracked piece that every query re-scans — cumulative cost degrades
// toward quadratic. CrackPolicy breaks that dependence (the stochastic
// cracking remedy of Halim, Idreos, Karras & Yap, VLDB 2012): when a
// crack targets a piece larger than a configurable cap, the piece is
// first split at auxiliary pivots — median-of-sample values under
// StochasticCracking, value-range midpoints under CappedCracking — that
// are recorded in the cracker index like any other boundary, so probes
// and read-only selects benefit from them immediately:
//
//	e := crackstore.OpenWith(crackstore.SelCrack, rel, crackstore.Options{
//	    Policy: crackstore.CrackPolicy{Kind: crackstore.StochasticCracking}})
//
// A policy belongs to the engine, so it is chosen where the engine is
// built, and only there: Options.Policy for OpenWith, ShardOptions.Policy
// for every shard of a sharded engine, DurableOptions.Policy for a durable
// one (where recovery replays the crack tape under it). No wrapper can
// change it later, and the serving layers take the engine as they find it.
// Pick StochasticCracking for unknown or
// adversarial access patterns (duplicate-heavy and skewed pieces split
// well because pivots are sampled from the data); CappedCracking when
// deterministic pivot placement matters more (uniform data, reproducible
// layouts without a seed); the default when queries are already uniformly
// spread, where auxiliary pivots only add constant overhead. Policies are
// part of the deterministic layout: maps that replay one tape must crack
// under one policy, which is why it is fixed at construction.
// `crackbench -exp adaptive -queries 1000` replays
// every (access pattern, policy) pair and prints the cumulative cost of
// each: the sequential sweep is where the stochastic policy pulls away
// from plain cracking, the uniform random pattern where auxiliary pivots
// buy nothing.
//
// # Concurrent serving
//
// Cracking makes reads into writes, so the paper's engines assume a single
// query executor. This package adds a two-phase protocol on top: every
// engine executes reorganization-free queries without mutating state
// (Engine.QueryRO) and refuses, read-only, the ones that would physically
// reorganize anything; Engine.Query executes those. The refusal is the one
// eligibility answer — there is no asking without executing, because an
// answer not acted on under the same lock is stale by the time it is used.
// Concurrent wraps an engine with a read-write lock built on that
// protocol — every query first tries QueryRO under the shared lock, so
// aligned repeat queries run in parallel, and only queries that must
// crack, merge pending updates, or maintain auxiliary structures fall back
// to Query behind the exclusive lock (double-checked, so one crack pays
// for every waiting reader):
//
//	shared := crackstore.Concurrent(e)   // safe for any number of goroutines
//	srv := crackstore.Serve(shared, crackstore.ServeOptions{Workers: 8})
//	res, cost, err := srv.Do(q)          // from any client goroutine
//
// Serve adds a bounded multi-client executor with per-query latency
// capture. A query takes one path from Server.Do to the engine: it runs on
// the submitting goroutine under a semaphore of Workers slots — no queue,
// no handoff, no goroutine owned by the server (`bash benchmark/run.sh
// --workload serve-warm --trace 1` prices it: serve.self_ns and
// serve.queue_ns on the ledger, over engine.concurrent.self_ns for the
// lock below).
//
// Serving statistics (ServeStats) use conservative nearest-rank
// percentiles — the fractional rank is rounded upward, never truncated to
// a rank below the percentile — measure elapsed time from the earliest
// submission, and count failed queries in Errors rather than silently
// shrinking the run. Server.Stats reads only the server's own instruments,
// so it never waits for a crack in progress; how the engine's readers fared
// is ConcurrencyStats(Server.Engine()).
//
// # Concurrency model
//
// A stack is built once — OpenWith (or Open) for the engine, then the
// wrappers — and fixed from then on: what an engine is and how it is
// configured is decided by its constructor, and a wrapper forwards the
// Engine methods (Kind, Query, QueryRO, Insert, Delete, Storage) and its
// report, nothing else. Everything else is built from those queries, so it
// works on any stack: JoinMax answers each side with one query, which a
// guard locks, a snapshot engine versions and a durable engine puts on its
// crack tape like any other. Two wrappers make an engine shared-safe; they
// trade write-path cost for read-path isolation.
//
//   - Concurrent: the QueryRO-then-Query read-write lock above. Aligned warm
//     reads share the lock and scale with cores, but any query that
//     cracks, or whose range matches a pending insertion, takes (or
//     waits for) the exclusive lock — so read tail latency inherits the
//     duration of whatever reorganization is in flight. Appropriate when
//     the workload is overwhelmingly warm repeats and writes are rare.
//
//   - Snapshot: multi-versioned cracked state. The writer is the wrapped
//     SelCrack engine, under a mutex, cracking and merging as it would
//     unwrapped; after each write it publishes its cracker columns as an
//     immutable version behind an atomic pointer — cuts, the keys of each
//     piece, pending updates — sharing every piece the write did not touch.
//     Readers traverse the version they loaded without any lock and apply
//     the pending updates (at most 128 a column) virtually. No published
//     version is ever written or reused, so the garbage collector frees one
//     once its last reader is done. Reads, the report and Storage never
//     wait for cracks, where under the RWMutex wrapper a reader's tail
//     inherits the full crack+merge duration of a writer: `bash
//     benchmark/run.sh --workload serve-churn --trace 1` shows that side
//     (the reader's query_p99_us, serve.reader_p999_us,
//     engine.concurrent.reader_wait_frac); the snapshot side has a ledger
//     row, engine.snapshot.self_ns on `--workload serve-warm --trace 1`,
//     and no end-to-end workload yet (ROADMAP item 3). The cost is a copy
//     of each touched piece's keys and of the piece table per write.
//     Appropriate whenever reads must meet a latency target while the store
//     keeps adapting — the common case this package exists for. Implemented
//     for SelCrack engines, which keep their layout, pending updates and
//     kernel counters when wrapped; other kinds fall back to Concurrent.
//
// Who wraps is one rule: whoever shares an engine calls Concurrent or
// Snapshot on it, and both return an engine that already guards itself
// (Concurrent, Snapshot, Sharded, OpenDurable) unchanged, so locks never
// stack. A stack guards itself exactly when its report has a readers or a
// snapshot section (see Observability): the report that says what a
// stack's layers are doing also says what they are, so no marker is
// needed. Serve applies exactly that rule — a bare engine gets Concurrent,
// anything else is used as-is; to serve snapshot reads, pass it a Snapshot
// engine (crackserved -snapshot does). ConcurrencyStats exposes the
// contention counters of the read-write lock (reader wait time under
// Concurrent, per shard summed under Sharded, and for durable engines); a
// Snapshot engine has no such lock and reports ok false — what it
// publishes is the crack_snapshot_published_total family.
//
// # Sharding
//
// One Concurrent engine still funnels every crack through a single write
// lock. Sharded splits the relation across n inner engines, each behind
// its own Concurrent wrapper:
//
//	e := crackstore.Sharded(crackstore.Sideways, rel, 4, crackstore.ShardOptions{Attr: "A"})
//	srv := crackstore.Serve(e, crackstore.ServeOptions{Workers: 16})
//
// Rows are range-partitioned on the chosen attribute (boundaries at the
// base data's n-quantiles), so conjunctive queries constraining that
// attribute are pruned to the shards whose value bands can intersect the
// predicate — a crack on one shard never blocks read-only hits on the
// others, and pruned shards are not touched at all. When the attribute
// cannot form n distinct bands (few distinct values, empty relation),
// partitioning falls back to hashing, which
// still spreads load and prunes point predicates but cannot prune ranges.
// Inserts and deletes route to the owning shard; global tuple keys are
// preserved. The sharded engine is already shared-safe — Serve and
// Concurrent use it as-is (shard.self_ns on `bash benchmark/run.sh
// --workload serve-warm --trace 1` is what the fan-out adds to a warm
// query over the bare engine).
//
// # Remote serving
//
// Everything above runs in one process. The remote-serving subsystem puts
// a network boundary in front of the serving layer, so the self-organizing
// store can be deployed as a daemon and reached from other processes and
// machines:
//
//	// server process (or: crackserved -addr :9090 -rows 1000000)
//	srv, _ := crackstore.ListenAndServe(":9090", e, crackstore.NetServeOptions{
//	    Serve: crackstore.ServeOptions{Workers: 8, Timeout: time.Second},
//	})
//	// client process
//	c, _ := crackstore.Dial("db-host:9090", crackstore.DialOptions{Conns: 2})
//	res, cost, err := c.Query(q) // same types as Engine.Query
//
// The protocol (internal/wire) is length-prefixed binary: a self-validating
// 12-byte frame header (payload length, the length again masked by a fixed
// constant, and a CRC32 of the payload), then a message-type byte, a
// request-ID varint, and the body. The masked length echo is checked before
// the length is trusted, so a corrupted header fails immediately instead of
// mis-framing the stream and stalling the reader on bytes that never
// arrive. Scalars are varints; result columns are fixed 8-byte words (on a
// loopback or datacenter link the path is CPU-bound, so fast en/decoding
// beats small frames). Because every request carries an ID and responses
// return in completion order, one connection pipelines many in-flight
// requests — a crack in progress does not stall the read-only answers
// behind it. Decoding is strict and fuzz-pinned: corrupt, truncated, or
// oversized frames are rejected without panics or unbounded allocation,
// and a malformed peer costs only its own connection.
//
// Server-side, each connection runs one reader and one writer goroutine;
// decoded queries dispatch into the same serve.Server the in-process path
// uses (bounded workers, latency stats), with warm read-only queries
// answered inline on the reader to spare a goroutine handoff. ServeOptions.Timeout bounds every query with a distinct
// ErrServeTimeout counted in the stats; a query that overruns its deadline
// finishes in the background without leaking its worker slot, so the
// connection's pipeline keeps moving. Close drains gracefully.
//
// Choose Dial when the engine must live elsewhere — shared across app
// instances, or sized beyond the client machine; choose Open/Serve when
// embedding in-process, which skips the wire entirely. What the wire costs
// on the machine at hand is one command: `bash benchmark/run.sh --workload
// remote-warm` drives a warm engine through netserve and a pooled client
// over loopback TCP, and `--trace 1` adds the per-layer ledger of the same
// run (serve admission, wire encode/decode, TCP and scheduling, client).
// A remote client replaying the
// same workload gets byte-identical results to in-process execution for
// every engine kind, sharded or not (the answer-equivalence test pins
// this).
//
// # Resilience
//
// The remote path assumes the network lies: connections corrupt, stall,
// truncate, and die, and the store must neither return a wrong answer nor
// apply a write twice because of it. Corruption anywhere in a frame —
// header or payload — is caught by the self-validating header and payload
// CRC, kills only that connection, and surfaces to the client as a
// retryable connection error, never as silent data damage.
//
// The client retries transparently: reads and never-sent requests retry on
// a fresh pooled connection with exponential backoff, full jitter, and a
// bounded budget (DialOptions.MaxRetries/RetryBase/RetryMax); writes whose
// fate is unknown — the request hit the wire but the response never came —
// carry an idempotency token, and the server's dedup window replays the
// recorded response for a token it has already executed instead of
// applying the write again, so a retried insert lands exactly once.
// DialOptions.HedgeAfter adds hedged reads for read-only queries: a
// duplicate is fired at a second connection once the first is unanswered
// after that fixed delay, and the first answer wins. Counters
// (RemoteClient.Counters) expose retries, hedges, sheds, and redials — a
// chaos run whose counters stay zero exercised nothing.
//
// The server protects itself under overload instead of queueing without
// bound: ServeOptions.MaxWaiting and NetServeOptions.MaxInflight draw an
// in-band "overloaded" response (ErrServeOverloaded in process,
// ErrRemoteOverloaded once a remote client's retry budget is spent) at
// the admission watermark, so a saturated server answers cheaply and
// stays responsive. The fault injector itself is internal/faultnet (also
// behind crackserved -fault-rate). A remote-vs-local equivalence test
// runs the full stack through it asserting byte-identical answers and
// exactly-once writes under 1-5% fault rates, and cmd/crackserved's
// daemon test does the same to the real binary through a 2% fault proxy:
// zero wrong answers, zero residual errors, retries and redials nonzero.
// What faults cost in throughput is not measured yet — benchmark/ has no
// fault-injected workload (ROADMAP item 4a).
//
// # Durability
//
// A cracked store is expensive to lose: the base data could be reloaded,
// but the adaptive layout — every boundary thousands of queries paid for —
// would have to be re-earned one crack at a time. OpenDurable makes both
// survive a process death:
//
//	e, _ := crackstore.OpenDurable(crackstore.SelCrack, rel, "/var/lib/crack",
//	    crackstore.DurableOptions{Sync: crackstore.WALSyncGroup})
//	defer crackstore.CloseDurable(e)
//
// A durable engine is the Concurrent guard plus a journal: the same lock
// and read side (it reports reader waits through ConcurrencyStats and
// needs no further wrapper), with Insert, Delete and Query journaled.
// Every acked Insert and Delete is appended to a write-ahead log before it
// is applied (log order is apply order, so replay reproduces tuple keys).
// A reorganizing query is recorded on a crack tape — the redo log of the
// layout itself — after it has executed, inside the same write-lock
// section: a query the engine rejects (an unknown column) never reaches
// the tape, and since tape records are never fsync-waited, a crash between
// crack and record costs restart warmth, not correctness. Recovery skips
// and counts (DurabilityStatsReport.TapeSkipped) a tape record that does
// not fit the recovered relation — no predicate, or an unknown attribute —
// instead of replaying it, and the next checkpoint drops it. WAL records
// and wire messages share one self-validating frame header
// (internal/frame: length, masked length echo, payload CRC32, a distinct
// mask per format so neither accepts the other's frames), so
// a torn tail, a zero-filled preallocation, or a flipped bit truncates the
// log at the last intact record instead of replaying garbage; the codec is
// fuzz-pinned (no panics, no unbounded allocation, decode/encode fixed
// point, longest-valid-prefix recovery at every byte offset).
//
// Recovery loads the newest checkpoint (base columns, tombstones, and the
// tape, written atomically via temp-file rename), replays the tape so the
// cracker index comes back warm, then applies the WAL tail. Tombstones
// belong to the relation (store.Relation.Delete), which every engine
// deletes through: a key is tombstoned once however often it is deleted,
// and a key no tuple has is not tombstoned at all, so the distinct deleted
// keys — all a checkpoint writes — never outnumber the rows
// (TestDurableCheckpointsEachDeadKeyOnce). Keys are positions the client
// holds, so they are never renumbered and the tombstones never shrink. Checkpoints
// rotate the log into per-checkpoint segments (wal.00000001.log, ...), so
// file identity — not offsets — decides which records postdate the
// checkpoint, and a crash anywhere in the rotation recovers from exactly
// one consistent (checkpoint, segment) pair. A clean Close leaves a marker
// that lets the next open skip replay entirely. `bash benchmark/run.sh
// --workload durable-churn` reports what a crash costs (recover_ms, the
// post-crash open) and what an ack costs (write_p50_us); `--trace 1` adds
// wal.replayed_records, wal.tape_records and the fsync rows behind them.
//
// DurableOptions.Sync picks the ack contract: WALSyncGroup (default)
// blocks each ack on an fsync covering its record, with concurrent writers
// sharing fsyncs (group commit) and a strictly serial writer paying one
// fsync per record; WALSyncNone acks immediately and risks the tail.
// Either way a WAL segment is preallocated (fallocate, Linux) one 1 MiB
// step past its write frontier, and extended by another step before an
// append would cross the allocated end, so the fsync behind an ack
// commits the record without also committing a file-size and extent
// change: on a 2-core ext4 VM a serial append's fsync p50 is 66–93 µs on
// a growing file against 47–61 µs after fallocate; writing the zeros
// ahead instead measured 51–89 µs, and fdatasync was no faster than fsync
// on either file, which is why the log syncs with fsync. The zeros past
// the frontier never validate as a record (the frame's masked length
// echo rejects an all-zero header), so recovery stops there and counts
// as torn only the bytes up to the last non-zero one. A segment file
// holds at most one step past its records, and a clean Close trims it to
// them before writing the clean marker. Where fallocate is refused, or
// off Linux, segments grow as they are written. After any storage
// error the log poisons — every later write is refused with a -1 key
// rather than acked on a log whose durable prefix is unknowable. The
// crash-point property test kills a logged workload at every byte offset
// of its WAL and asserts zero acked-write loss, no phantom rows, and
// answer equivalence to a never-crashed twin — also under injected torn
// writes, short writes, and fsync failures (internal/faultnet's seeded
// fault core, shared between network connections and the faultfs file
// wrapper). crackserved -data-dir serves a durable engine, logs whether
// startup recovery was clean or replayed, and its SIGTERM drain
// checkpoints and marks clean; cmd/crackserved's daemon test (CI's
// daemon-smoke job) SIGKILLs the daemon mid-churn and verifies every acked
// insert survives exactly once.
//
// The cmd/crackbench and cmd/tpchbench tools regenerate the tables and
// figures of the paper's evaluation (`crackbench -exp all`); everything
// about serving, the wire and durability is measured by `bash
// benchmark/run.sh`, whose output carries its environment (see
// benchmark/README.md).
//
// # Observability
//
// A self-organizing store makes decisions continuously — every query may
// reorganize data — so operating one means being able to see what it is
// deciding. internal/obs is the stdlib-only observability core: atomic
// counters and gauges, fixed-bucket log₂ latency histograms (Observe is a
// few atomic ops, no locks, no allocation), and a named Registry that
// exposes everything as Prometheus text (version 0.0.4) or JSON.
//
// Every stack reports on itself through one method. An engine's Report
// has one section per layer the stack is built from — kernel (a physical
// design that cracks), chunks (partial maps), readers (the read-write lock
// of Concurrent and durable engines), snapshot (versioned reads), durable
// (the WAL) — and a section is present only when the layer is: each
// wrapper takes its own lock, asks the engine it wraps, and adds its own
// section; a sharded engine sums its shards'. RegisterMetrics exports a
// family only when its section is present, read by closures that run at
// scrape time only, so absence on /metrics is an answer: a Snapshot stack
// lists no crack_engine_reader_* family because it has no lock to wait on,
// a Concurrent one no crack_snapshot_* family because it publishes no
// versions. The serving layers (serve, netserve, client) count each event
// once, in an obs instrument they keep whether or not a registry exports
// it — ServeStats and crack_serve_* read the same counters. Any `bash benchmark/run.sh --workload remote-warm
// --trace 1` run reports what looking costs as trace.overhead_frac: the
// throughput of the same workload without and with a registry on every
// layer and sampled spans.
//
// Families are named crack_<layer>_<what>[_unit] — layers kernel, index,
// partial, engine, snapshot, wal, serve, net, client — with counters suffixed
// _total and durations in seconds; a histogram family also exports an
// exact _max companion gauge. `crackserved -metrics-addr :9191` mounts
// /metrics (text; ?format=json for the JSON twin) and net/http/pprof on a
// separate mux, so profiling and scraping never contend with the data
// port. `cracktrace -metrics host:9191` turns the JSON exposition into a
// live delta report: counters as per-second rates, histograms with
// current p50/p99/max, idle families suppressed.
//
// Tracing is per-query and sampled. A client dialed with
// DialOptions.TraceSample: N negotiates protocol v2 via a hello exchange
// (an old server fails the hello in-band and the client silently
// downgrades — tracing off, queries unaffected), then tags 1-in-N
// requests with a trace ID that rides a wire extension. The server times
// the tagged query's life as spans — queue wait, execute, the crack
// share of execution (engine Cost.Sel), response encode — returns them
// in the response, and the client re-anchors them into its own timeline
// bracketed by client_send/client_recv spans, delivering one
// obs.Trace to DialOptions.OnTrace. `crackserved -trace-sample N`
// additionally samples server-side (events as one-line JSON on stderr).
// The signals this layer exposes — piece counts, crack rates, queue
// and crack span shares — are exactly the inputs a future adaptive
// tuner (merge-like reorganization scheduling, admission control) would
// observe; see ROADMAP.md.
//
// # Invariants
//
// The concurrency and protocol contracts the runtime layers rely on are
// machine-checked by cmd/crackvet (internal/vet), a stdlib-only static
// analyzer CI runs over the whole tree, benchmark/ included;
// `go run ./cmd/crackvet ./...` must exit clean, here and in benchmark/.
// crackvet keeps the three contracts no test catches a break of:
//
//   - frozenversion: nothing reachable from a value loaded from an
//     atomic.Pointer — a published snapshot version — is ever written.
//     Readers traverse versions lock-free with no way to observe a fix-up;
//     the only legal write path is copy, mutate the copy, publish. Nor is
//     published memory ever reused, so no reader needs to announce itself:
//     a replaced version lives exactly as long as some reader holds it, and
//     the garbage collector reclaims it after. crackvet sees writes through
//     a loaded pointer and through a pointer read out of published memory
//     (a column version in the published cols map), so a writer derives
//     each successor in the function that loads the version it replaces; a
//     write through memory the writer still holds from building a version
//     is held by engine.TestSnapshotConcurrentReaders, which checks after
//     every write that the version it replaced (its cuts, piece keys and
//     pending updates) is unchanged.
//   - lockpair: every sync.Mutex/RWMutex section is released by
//     construction. An acquire — X.Lock(), X.RLock(), or an `if` whose
//     condition calls X.TryLock()/X.TryRLock() and whose body may block on
//     X — is followed in the same block either (a) at once by `defer
//     X.Unlock()` (`defer X.RUnlock()` for a read lock), or (b) by the
//     matching release, with nothing between them that calls anything but a
//     builtin other than panic or a conversion, indexes or slices, returns,
//     branches, defers, starts a goroutine, selects, or uses a channel. A
//     section of form (b) cannot panic out through a call or leave before
//     its release; a section that must drop its lock before blocking work
//     is its own function with a deferred release. A lock is never
//     re-acquired while its deferred release is pending.
//   - wirebounds: inside internal/wire, internal/wal and internal/frame —
//     the decoders of peer frames, log records and checkpoints — every
//     decode-side preallocation size derives from frame.Reader.Count (or
//     an explicit bound guard), which caps a count by the bytes left to
//     encode it, so a corrupt 5-byte count cannot demand a multi-gigabyte
//     allocation, or overflow into a panic, before validation.
//
// Three rules are held by tests, not crackvet, because a break of any of
// them fails tests that run on every change:
//
//   - deterministic replay: internal/crack, internal/sideways (the one map
//     store, full and partial maps alike) and internal/partial never read
//     the wall clock or the global math/rand state (explicitly seeded local
//     generators are fine), because replaying a crack tape must reproduce
//     the exact layout of the run that recorded it (the tape replay that
//     aligns maps, paper §3). A Stochastic pivot drawn from the global
//     rand.Uint64 fails crack.TestPolicyReplayDeterminism,
//     crack.FuzzFollowersAgree, crack.FuzzPolicyKernels,
//     sideways.TestPolicyStoreWithUpdates and simtest.FuzzStacksAgree.
//   - enum dispatch: switches over wire.Op, wire.Status, engine.Kind,
//     wal.RecType and obs.Stage either cover every declared constant or
//     carry an explicit default arm, so growing an enum cannot make a
//     dispatcher drop a request, or recovery silently skip a logged write.
//     The tests exercise every engine kind; an engine.NewWith that drops
//     PartialSideways fails TestOpenAllKinds, engine.TestConcurrentMatchesSequentialReplay,
//     shard.TestReportFamiliesPerStack, netserve.TestMetricsEndToEnd,
//     simtest.FuzzStacksAgree, tpch.TestAllQueriesAgreeAcrossEngines,
//     exp.TestCSVStorageExport and crackserved's TestDaemon.
//   - follower groups: only map-set alignment (sideways.Tape.ReplayJoint)
//     builds a follower group for crack.Pairs.CrackRangeWith, and only from
//     maps, chunks and spans it finds at one cursor of one tape, each with
//     a head, or a tail whose leader (its area's span or its head group's
//     owner) joins first. Nothing else may, because nothing else knows the
//     heads are equal.
//     The follower list lives for one CrackRangeWith call.
//     crack.FuzzFollowersAgree pins followers against independent cracks;
//     the two TestAlignTogetherVisitsOnce tests pin the grouping by count.
//
// Two ownership rules keep the remote read path from allocating what it
// throws away. Both are one rule — the caller passes the memory — and tests,
// not crackvet, hold them (the map-engine fuzz test lends each engine one
// Result for its whole stream; the wire fuzzers overwrite every payload they
// decoded):
//
//   - lent results: an answer written into the Result a query lends
//     (engine.Query.Into) is valid until the caller lends the same Result
//     again. Only netserve's connection reader lends, one Result each, and
//     only on its inline path, where it encodes the response frame before
//     it reads the next request; a dispatched request lends nothing, because
//     serve lets a timed-out execution finish detached. A sharded engine
//     hands the memory to its one answering shard or to its merge, never to
//     shards answering side by side. Everyone else gets fresh columns of
//     exactly the answer's length. A Window, a map and a chunk are never a
//     result's column; a Result is always a copy.
//   - frame payloads: wire.ReadFrame reads into the buffer its caller passes
//     and the payload it returns is valid until the caller's next read into
//     that buffer; client and netserve keep one per connection, for the
//     connection's life. DecodeRequest and DecodeResponse copy everything
//     they return, so a decoded message outlives its payload. A connection's
//     buffer, and a pooled frame of netserve's frameBufPool or the client's
//     outFramePool, is dropped rather than kept once it has grown past
//     wire.MaxPooledBuf (1 MiB): idle connections and pool slots hold at most
//     that each, whatever the largest message they ever carried.
package crackstore
