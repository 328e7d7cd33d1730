package crackstore

import (
	"fmt"

	"crackstore/client"
	"crackstore/internal/crack"
	"crackstore/internal/dict"
	"crackstore/internal/engine"
	"crackstore/internal/netserve"
	"crackstore/internal/serve"
	"crackstore/internal/shard"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// Core types, re-exported from the kernel and engine layers.
type (
	// Value is the attribute value type (int64; strings are dictionary-
	// encoded by callers).
	Value = store.Value
	// Pred is a one-attribute range predicate.
	Pred = store.Pred
	// Relation is a named set of aligned columns.
	Relation = store.Relation
	// AttrPred pairs an attribute name with a predicate.
	AttrPred = engine.AttrPred
	// Query is a multi-selection, multi-projection query.
	Query = engine.Query
	// Result holds positionally aligned projection columns.
	Result = engine.Result
	// Cost is the selection / tuple-reconstruction cost split.
	Cost = engine.Cost
	// Engine is one physical design over a relation.
	Engine = engine.Engine
	// Kind identifies a physical design.
	Kind = engine.Kind
	// JoinSide describes one side of a join query.
	JoinSide = engine.JoinSide
	// JoinCost breaks a join into pre-join, join, and post-join phases.
	JoinCost = engine.JoinCost
)

// Engine kinds: the designs the store serves. The paper's presorted and
// row-store yardsticks are experiment baselines, not kinds.
const (
	// Scan is the plain column-store baseline: full scans with
	// order-preserving selects; the oracle the other kinds are checked
	// against.
	Scan = engine.Scan
	// SelCrack is selection cracking (CIDR 2007).
	SelCrack = engine.SelCrack
	// Sideways is sideways cracking with fully materialized maps
	// (Section 3 of the paper).
	Sideways = engine.Sideways
	// PartialSideways is partial sideways cracking with chunked maps and
	// storage management (Section 4 of the paper).
	PartialSideways = engine.PartialSideways
)

// Range returns the half-open predicate lo <= v < hi.
func Range(lo, hi Value) Pred { return store.Range(lo, hi) }

// OpenRange returns the open predicate lo < v < hi.
func OpenRange(lo, hi Value) Pred { return store.Open(lo, hi) }

// Point returns the equality predicate v == x.
func Point(x Value) Pred { return store.Point(x) }

// NewRelation returns an empty relation with the given attribute names.
func NewRelation(name string, attrs ...string) *Relation {
	return store.NewRelation(name, attrs...)
}

// Build constructs a relation of n rows with gen supplying each value.
func Build(name string, n int, attrs []string, gen func(attr string, row int) Value) *Relation {
	return store.Build(name, n, attrs, gen)
}

// Open wraps rel (not copied) in an engine of the given kind.
func Open(kind Kind, rel *Relation) Engine { return engine.New(kind, rel) }

// Options are the knobs of an engine, fixed when it is built: the adaptive
// cracking policy of the cracking kinds, and the storage budget of the
// sideways kinds. A kind ignores the knobs it does not have.
type Options = engine.Options

// OpenWith is Open with options. Nothing about an engine is configured
// after it is built: structures that replay shared tapes must crack under
// one policy from their first query on.
func OpenWith(kind Kind, rel *Relation, opts Options) Engine { return engine.NewWith(kind, rel, opts) }

// CrackPolicy configures adaptive pivot selection for cracking engines.
// The zero value cracks only at query bounds (the paper's algorithm);
// the Stochastic and Capped kinds additionally pre-split any targeted
// piece larger than a cap, so convergence no longer depends on the query
// pattern — sequential sweeps and zoom-ins degrade plain cracking toward
// quadratic total work, which the auxiliary pivots prevent.
type CrackPolicy = crack.Policy

// CrackPolicyKind identifies one adaptive pivot policy.
type CrackPolicyKind = crack.PolicyKind

// Adaptive cracking policy kinds.
const (
	// DefaultCracking cracks exactly at query predicate bounds.
	DefaultCracking = crack.Default
	// StochasticCracking pre-splits oversized pieces at median-of-sample
	// pivots drawn with a seeded hash (the DDC/DDR remedy of Halim et al.,
	// VLDB 2012).
	StochasticCracking = crack.Stochastic
	// CappedCracking pre-splits oversized pieces at the midpoint of their
	// value range, recursively (the deterministic sibling).
	CappedCracking = crack.Capped
)

// CrackPolicyByName maps "default", "stochastic" or "capped" to its kind.
func CrackPolicyByName(name string) (CrackPolicyKind, bool) { return crack.KindByName(name) }

// JoinMax evaluates a two-sided join with per-side conjunctive selections
// and returns the maxima of the requested projections, keyed "L.attr" /
// "R.attr" (the paper's q2 shape). A side may be any engine or stack —
// concurrent, snapshot, durable (its cracks go on the crack tape) or
// sharded. Bare Scan and SelCrack engines fetch post-join projections from
// the full base columns, the scattered access of Exp4; every other side is
// answered as one query and fetches from its clustered result.
func JoinMax(l, r JoinSide) (map[string]Value, JoinCost) { return engine.JoinMax(l, r) }

// MaxPerProj reduces a result to per-projection maxima.
func MaxPerProj(res Result, projs []string) (map[string]Value, bool) {
	return engine.MaxPerProj(res, projs)
}

// SidewaysStore returns the underlying map store of a Sideways engine for
// advanced inspection (map sets, tapes, storage), or nil.
func SidewaysStore(e Engine) *sideways.Store { return mapStoreOf(e, Sideways) }

// PartialStore returns the underlying map store of a PartialSideways
// engine, or nil.
func PartialStore(e Engine) *sideways.Store { return mapStoreOf(e, PartialSideways) }

// mapStoreOf returns the map store behind a bare engine of the given kind,
// or nil.
func mapStoreOf(e Engine, kind Kind) *sideways.Store {
	if me, ok := e.(interface{ Store() *sideways.Store }); ok && e.Kind() == kind {
		return me.Store()
	}
	return nil
}

// Dict is an order-preserving string dictionary: string range and prefix
// predicates become integer range predicates, making string columns
// crackable (the "string cracking" direction of the paper's conclusions).
type Dict = dict.Dict

// BuildDict builds an order-preserving dictionary over the distinct
// strings in vals.
func BuildDict(vals []string) *Dict { return dict.Build(vals) }

// KeyPair is one cracker-join match (tuple keys of both inputs).
type KeyPair = sideways.KeyPair

// CrackerJoin joins lAttr of the left engine's relation with rAttr of the
// right engine's over range partitions derived from (and retained as)
// cracking knowledge — the partitioned join of Section 3.4. Both engines
// must be Sideways engines.
func CrackerJoin(l Engine, lAttr string, r Engine, rAttr string, parts int) ([]KeyPair, error) {
	ls, rs := SidewaysStore(l), SidewaysStore(r)
	if ls == nil || rs == nil {
		return nil, fmt.Errorf("crackstore: CrackerJoin requires Sideways engines, got %v and %v", l.Kind(), r.Kind())
	}
	return sideways.CrackerJoin(ls, lAttr, rs, rAttr, parts), nil
}

// ClusteredMax returns the maximum live value of attr on a Sideways
// engine, reading only the last non-empty piece of an existing cracker map
// (Section 3.4: "a max can consider only the last piece of a map"). For
// other engine kinds it returns ok == false.
func ClusteredMax(e Engine, attr string) (v Value, ok bool) {
	if st := SidewaysStore(e); st != nil {
		return st.MaxAttr(attr)
	}
	return 0, false
}

// ClusteredMin is the symmetric minimum.
func ClusteredMin(e Engine, attr string) (v Value, ok bool) {
	if st := SidewaysStore(e); st != nil {
		return st.MinAttr(attr)
	}
	return 0, false
}

// Concurrent wraps an engine with the two-phase (QueryRO, then Query)
// locking protocol so it can be shared across goroutines: queries that reorganize
// nothing — the vast majority once a workload's ranges are cracked — run
// in parallel under a shared read lock, and only queries that must crack,
// merge pending updates, or maintain auxiliary structures take the
// exclusive write lock (double-checked, so one crack pays for every
// waiting reader). Wrapping is idempotent.
func Concurrent(e Engine) Engine { return engine.Concurrent(e) }

// Snapshot wraps an engine for concurrent serving with lock-free snapshot
// reads: the wrapped engine stays the only writer, and after every write it
// publishes its cracker columns as an immutable version behind an atomic
// pointer, sharing the pieces the write did not touch. Readers traverse the
// version they loaded, which nothing writes again, so a read-only query
// never waits for a crack, where Concurrent stalls all readers behind a
// cold crack's write lock. Implemented for SelCrack engines, which keep
// their layout and kernel counters; already-shared engines are returned
// unchanged and other kinds fall back to Concurrent. Wrapping is idempotent.
func Snapshot(e Engine) Engine { return engine.Snapshot(e) }

// ConcurrencyStats reports how e's readers fared against its read-write
// lock: how long and how often they blocked behind a writer (Concurrent,
// durable and — summed over shards — sharded engines). ok is false when e
// has no such lock: a bare engine, or a Snapshot engine, whose readers take
// none (its published versions are the crack_snapshot_published_total
// metric family).
func ConcurrencyStats(e Engine) (engine.ConcStats, bool) { return engine.ConcStatsOf(e) }

// DurableOptions configures OpenDurable: WAL fsync mode (WALSyncGroup /
// WALSyncNone), checkpoint rotation threshold, cracking policy, and a
// file-wrapping hook for fault injection.
type DurableOptions = engine.DurableOptions

// DurabilityStatsReport is the durability counter snapshot of a durable
// engine: recovery outcome (clean vs replayed, records and bytes applied,
// torn tail truncated), crack-tape length, checkpoints written, WAL size,
// and write/fsync activity.
type DurabilityStatsReport = engine.DurStats

// WALSync selects when an acked write becomes durable (see the Durability
// section of the package documentation).
type WALSync = wal.SyncMode

// WAL sync modes.
const (
	// WALSyncGroup (default): acks wait for an fsync covering their
	// record; concurrent writers share fsyncs (group commit).
	WALSyncGroup = wal.SyncGroup
	// WALSyncNone: acks never wait; a crash may lose the acked tail.
	WALSyncNone = wal.SyncNone
)

// ParseWALSync parses "group" or "none" (the -fsync flag values).
func ParseWALSync(s string) (WALSync, error) { return wal.ParseSyncMode(s) }

// OpenDurable opens (or creates) a durable engine backed by data directory
// dir: every acked Insert/Delete is written to a CRC-framed write-ahead
// log before it is applied, reorganizing queries are recorded on a crack
// tape, and periodic checkpoints snapshot base columns + tombstones + tape
// atomically. For a fresh directory, rel seeds the store; on recovery, rel
// is ignored — the relation is rebuilt from the checkpoint, the tape is
// replayed so the adaptive layout comes back warm, and the WAL tail is
// applied (torn tail truncated). The returned engine is shared-safe (no
// Concurrent wrapper needed) and should be closed with CloseDurable.
func OpenDurable(kind Kind, rel *Relation, dir string, opts DurableOptions) (Engine, error) {
	return engine.OpenDurable(kind, rel, dir, opts)
}

// CloseDurable flushes, checkpoints, and closes a durable engine, marking
// the shutdown clean so the next OpenDurable skips replay entirely. ok is
// false when e is not a durable engine.
func CloseDurable(e Engine) (ok bool, err error) { return engine.CloseDurable(e) }

// DurabilityStats reports a durable engine's durability counters; ok is
// false when e is not durable.
func DurabilityStats(e Engine) (s DurabilityStatsReport, ok bool) { return engine.DurStatsOf(e) }

// ShardOptions tunes a sharded engine: partition attribute, cracking
// policy, and snapshot reads per shard.
type ShardOptions = shard.Options

// Sharded partitions rel across n engines of the given kind, each behind
// its own Concurrent wrapper. Rows are range-partitioned on
// ShardOptions.Attr (default: the relation's first attribute) with
// boundaries at the base data's n-quantiles, falling back to hash
// partitioning when the attribute cannot form n distinct bands.
// Conjunctive queries that constrain the partition attribute skip every
// shard whose value band cannot intersect the predicate, and a query takes
// a shard's write lock only if that shard itself must crack — a crack on
// one shard never blocks read-only hits on the others. The returned engine is already shared-safe: Serve and
// Concurrent use it as-is.
func Sharded(kind Kind, rel *Relation, n int, opts ShardOptions) Engine {
	return shard.New(kind, rel, n, opts)
}

// ServeOptions tunes a Server: the number of concurrently executing
// queries (Workers), the overload watermark (MaxWaiting), the per-query
// deadline (Timeout), and the metrics registry and latency-sample window.
// How the engine is shared and which cracking policy it runs are not
// serving options: decide them where the engine is built (Concurrent,
// Snapshot, OpenWith, Sharded, OpenDurable).
type ServeOptions = serve.Options

// Server executes queries from many clients against one shared engine
// under a bound on concurrently executing queries, capturing per-query
// latencies.
type Server = serve.Server

// ServeStats summarizes a serving run: query count, throughput (QPS), and
// latency percentiles.
type ServeStats = serve.Stats

// Serve returns a concurrent serving layer over e. The one wrapping rule:
// an engine that is not already shared-safe (Concurrent, Snapshot, Sharded,
// OpenDurable) is wrapped in Concurrent. Callers submit queries with
// Server.Do from any number of goroutines — each executes on its caller's
// goroutine — and Close the server when done.
func Serve(e Engine, opts ServeOptions) *Server { return serve.New(e, opts) }

// ErrServeTimeout is the distinct error Server.Do returns when
// ServeOptions.Timeout expires before the query completes; timed-out
// queries count in ServeStats.Errors and never leak a worker slot.
var ErrServeTimeout = serve.ErrTimeout

// ErrServeOverloaded is the distinct error Server.Do returns when
// ServeOptions.MaxWaiting is set and the backlog is at the watermark: the
// query was shed without executing. Sheds count in ServeStats.Sheds, not
// Errors — shedding is the overload defense working, not a failure.
var ErrServeOverloaded = serve.ErrOverloaded

// DialOptions tunes a remote client: pooled connection count, response
// frame cap, dial timeout, and the resilience knobs — retry budget and
// backoff schedule (MaxRetries, RetryBase, RetryMax) and the hedge delay
// of read-only queries (HedgeAfter; 0 never hedges). Per-call deadlines
// come from the context of the *Context methods.
type DialOptions = client.Options

// ErrRemoteOverloaded is the error a RemoteClient call returns once the
// server has shed it past the retry budget: the server answered in-band
// that it is at capacity, and backing off further is the caller's call.
var ErrRemoteOverloaded = client.ErrOverloaded

// RemoteCounters are a RemoteClient's cumulative resilience counters
// (retries, hedges, hedge wins, sheds seen, redials) from
// RemoteClient.Counters — the observability half of the retry layer: a
// fault-injection run whose counters stay zero exercised nothing.
type RemoteCounters = client.Counters

// RemoteClient is a connection to a crackserved daemon. It multiplexes any
// number of concurrent callers over a small pool of TCP connections —
// every request carries an ID, so many requests are in flight per
// connection at once and responses are matched as the server finishes
// them — and returns the same typed results (Result, Cost) the in-process
// Engine API does.
type RemoteClient = client.Client

// RemoteStats is the scalar serving summary a daemon reports to
// RemoteClient.Stats.
type RemoteStats = client.Stats

// Dial connects to a crackserved daemon (or any ListenAndServe listener)
// at addr. Use it when the engine lives in another process:
//
//	c, err := crackstore.Dial("localhost:9090", crackstore.DialOptions{Conns: 2})
//	res, cost, err := c.Query(q) // Engine.Query, over the wire
//
// For an engine in the same process, Open/Serve remain the faster path.
func Dial(addr string, opts DialOptions) (*RemoteClient, error) { return client.Dial(addr, opts) }

// NetServeOptions tunes a network server: the serving-layer knobs
// (NetServeOptions.Serve: Workers, MaxWaiting, per-query Timeout) plus wire
// limits (MaxFrame, MaxInflight).
type NetServeOptions = netserve.Options

// NetServer serves an engine over TCP to RemoteClient peers. Close drains
// gracefully: it answers everything in flight before shutting down.
type NetServer = netserve.Server

// ListenAndServe serves e over TCP at addr (e.g. ":9090") in a background
// goroutine — the embeddable form of the crackserved daemon. The engine is
// wrapped for sharing exactly as Serve wraps it. Remote peers connect with
// Dial; Close the returned server to drain and stop.
func ListenAndServe(addr string, e Engine, opts NetServeOptions) (*NetServer, error) {
	return netserve.Listen(addr, e, opts)
}
