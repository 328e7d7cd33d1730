package simtest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"crackstore/client"
	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/netserve"
	"crackstore/internal/serve"
	"crackstore/internal/shard"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// A base is the engine at the bottom of a stack: a kind and the options it
// is built with.
type base struct {
	name string
	kind engine.Kind
	opts engine.Options
}

// An opener builds a stack over rel with b at its bottom.
type opener func(t testing.TB, b base, rel *store.Relation) engine.Engine

// A stack is one way of serving a base engine. served stacks answer through
// a server, so what they open is an adapter over it rather than the stack.
// A remote stack names its twin: the in-process stack its server executes
// against (the server guards a bare engine with Concurrent), whose answers
// its own must equal byte for byte.
type stack struct {
	name   string
	open   opener
	served bool
	twin   string
}

var stacks = []stack{
	{name: "bare", open: bare},
	{name: "concurrent", open: wrapped(engine.Concurrent)},
	{name: "snapshot", open: wrapped(engine.Snapshot)},
	{name: "durable", open: durable},
	{name: "shards", open: sharded(false)},
	{name: "shards+snapshot", open: sharded(true)},
	{name: "serve", open: served, served: true},
	{name: "remote", open: overWire(bare), served: true, twin: "concurrent"},
	{name: "remote+shards", open: overWire(sharded(false)), served: true, twin: "shards"},
}

func bare(_ testing.TB, b base, rel *store.Relation) engine.Engine {
	return engine.NewWith(b.kind, rel, b.opts)
}

func wrapped(wrap func(engine.Engine) engine.Engine) opener {
	return func(t testing.TB, b base, rel *store.Relation) engine.Engine { return wrap(bare(t, b, rel)) }
}

func durable(t testing.TB, b base, rel *store.Relation) engine.Engine {
	e, err := engine.OpenDurable(b.kind, rel, t.TempDir(), engine.DurableOptions{Sync: wal.SyncNone, Policy: b.opts.Policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.CloseDurable(e) })
	return e
}

func sharded(snapshot bool) opener {
	return func(_ testing.TB, b base, rel *store.Relation) engine.Engine {
		return shard.New(b.kind, rel, 4, shard.Options{Attr: "A", Snapshot: snapshot, Policy: b.opts.Policy})
	}
}

func served(t testing.TB, b base, rel *store.Relation) engine.Engine {
	srv := serve.New(bare(t, b, rel), serve.Options{})
	t.Cleanup(srv.Close)
	return serverEngine{srv}
}

func overWire(inner opener) opener {
	return func(t testing.TB, b base, rel *store.Relation) engine.Engine {
		s, err := netserve.Listen("127.0.0.1:0", inner(t, b, rel), netserve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		c, err := client.Dial(s.Addr().String(), client.Options{Conns: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return &remoteEngine{kind: b.kind, s: s, c: c}
	}
}

// serverEngine asks a serve.Server what the stack's callers would ask it.
// An error panics; the replay reports it with the cell and the op.
type serverEngine struct{ srv *serve.Server }

func (e serverEngine) Kind() engine.Kind     { return e.srv.Engine().Kind() }
func (e serverEngine) Insert(v ...Value) int { return e.srv.Engine().Insert(v...) }
func (e serverEngine) Delete(key int)        { e.srv.Engine().Delete(key) }
func (e serverEngine) Storage() int          { return e.srv.Engine().Storage() }
func (e serverEngine) Query(q engine.Query) (engine.Result, engine.Cost) {
	res, cost, err := e.srv.Do(q)
	must(err)
	return res, cost
}

func (e serverEngine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	res, cost, ok, err := e.srv.DoRO(q, time.Time{}, nil)
	must(err)
	return res, cost, ok
}

// remoteEngine asks a netserve server over loopback TCP through a client
// of two pooled connections.
type remoteEngine struct {
	kind engine.Kind
	s    *netserve.Server
	c    *client.Client
}

func (e *remoteEngine) Kind() engine.Kind { return e.kind }
func (e *remoteEngine) Storage() int      { return e.s.Engine().Storage() }

// Delete forwards key. The wire carries no negative key: the server refuses
// one as a corrupt request before any engine sees it, which is how a remote
// stack ignores it.
func (e *remoteEngine) Delete(key int) {
	if err := e.c.Delete(key); key >= 0 {
		must(err)
	}
}

func (e *remoteEngine) Insert(vals ...Value) int {
	key, err := e.c.Insert(vals...)
	must(err)
	return key
}

func (e *remoteEngine) Query(q engine.Query) (engine.Result, engine.Cost) {
	res, cost, err := e.c.Query(q)
	must(err)
	return res, cost
}

func (e *remoteEngine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	res, cost, ok, err := e.c.QueryRO(q)
	must(err)
	return res, cost, ok
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Value aliases the kernel value type.
type Value = store.Value

// A cell is one base on one stack.
type cell struct {
	stack stack
	base  base
}

func (c cell) name() string { return c.stack.name + "/" + c.base.name }

// cells lists the matrix: each served kind on every stack; the budgeted
// map engines bare, remote and behind Concurrent, the remote cell's twin;
// an adaptive policy on each cracking kind, bare and sharded. A remote cell follows its twin.
func cells() []cell {
	on := func(b base, names ...string) (out []cell) {
		for _, name := range names {
			out = append(out, cell{stacks[slices.IndexFunc(stacks, func(s stack) bool { return s.name == name })], b})
		}
		return out
	}
	var out []cell
	for _, s := range stacks {
		for _, k := range engine.Kinds() {
			out = append(out, cell{s, base{k.String(), k, engine.Options{}}})
		}
	}
	budgeted := []base{
		{"sideways/budget=600", engine.Sideways, engine.Options{Budget: 3 * rows}},
		{"partial/budget=400", engine.PartialSideways, engine.Options{Budget: 2 * rows}},
		// Room for one full map: a query on another set evicts every map
		// of this one, which un-fetches it and pushes its tape's updates
		// back to pending.
		{"sideways/budget=200", engine.Sideways, engine.Options{Budget: rows}},
	}
	for _, b := range budgeted {
		out = append(out, on(b, "bare", "concurrent", "remote")...)
	}
	for _, k := range []engine.Kind{engine.SelCrack, engine.Sideways, engine.PartialSideways} {
		for _, pk := range []crack.PolicyKind{crack.Stochastic, crack.Capped} {
			b := base{k.String() + "/" + pk.String(), k, engine.Options{Policy: crack.Policy{Kind: pk, Cap: 32, Seed: 9}}}
			out = append(out, on(b, "bare", "shards")...)
		}
	}
	return out
}

// relation builds the seeded relation every cell and the oracle start
// from, each its own copy.
func relation(seed int64, n int, attrs []string, domain int64) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	return store.Build("R", n, attrs, func(string, int) Value { return rng.Int63n(domain) })
}

// tuples is res as a sorted multiset of its rows over projs.
func tuples(res engine.Result, projs []string) []string {
	rows := make([]string, res.N)
	for i := range rows {
		row := make([]Value, len(projs))
		for j, attr := range projs {
			row[j] = res.Cols[attr][i]
		}
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return rows
}

// sameAnswer reports how res differs from the oracle's rows want: every
// projected column res.N long, no column it does not project, and exactly
// the rows want holds. It returns "" when they agree.
func sameAnswer(res engine.Result, projs []string, want []string) string {
	for attr, col := range res.Cols {
		if !slices.Contains(projs, attr) || len(col) != res.N {
			return fmt.Sprintf("column %s holds %d values for N = %d, projections %v", attr, len(col), res.N, projs)
		}
	}
	got := tuples(res, projs)
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, scan returned %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d = %s, scan has %s", i, got[i], want[i])
		}
	}
	return ""
}
