package netserve

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// sortedRows renders a result as a sorted multiset of rows, so engines with
// different physical layouts compare equal exactly when they agree on
// content.
func sortedRows(res engine.Result, projs []string) []string {
	rows := make([]string, res.N)
	for i := range rows {
		for _, a := range projs {
			rows[i] += fmt.Sprint(res.Cols[a][i], "|")
		}
	}
	sort.Strings(rows)
	return rows
}

// TestMalformedRemoteQueryDoesNotBrickDurableStore pins the poison-tape
// bug end to end, the way a crackserved -data-dir daemon met it: one
// remote query naming an unknown column draws an in-band error, the server
// drains, the store closes clean — and the next open must succeed (it used
// to panic replaying the rejected query from the tape, forever) and answer
// like a Scan twin.
func TestMalformedRemoteQueryDoesNotBrickDurableStore(t *testing.T) {
	dir := t.TempDir()
	rel := buildRel(31, 2000, 500)
	e, err := engine.OpenDurable(engine.Sideways, cloneRel(rel), dir, engine.DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := startServer(t, e, Options{})
	c := dial(t, s, client.Options{})

	good := engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(100, 300)}},
		Projs: []string{"B", "C"},
	}
	if _, _, err := c.Query(good); err != nil {
		t.Fatalf("good query: %v", err)
	}
	bad := engine.Query{Preds: []engine.AttrPred{{Attr: "NOPE", Pred: store.Range(0, 10)}}, Projs: []string{"A"}}
	if _, _, err := c.Query(bad); err == nil {
		t.Fatal("unknown-column query returned no error")
	}
	if _, _, err := c.Query(good); err != nil {
		t.Fatalf("connection unusable after the rejected query: %v", err)
	}

	s.Close()
	if ok, err := engine.CloseDurable(e); !ok || err != nil {
		t.Fatalf("CloseDurable: ok=%v err=%v", ok, err)
	}
	re, err := engine.OpenDurable(engine.Sideways, nil, dir, engine.DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer engine.CloseDurable(re)
	if st, _ := engine.DurStatsOf(re); !st.CleanShutdown || st.TapeLen != 1 || st.TapeSkipped != 0 {
		t.Fatalf("reopened store: %+v, want a clean recovery with the one good crack on tape", st)
	}
	twin := engine.NewScan(rel)
	for _, q := range []engine.Query{
		good,
		{Preds: []engine.AttrPred{{Attr: "B", Pred: store.Range(0, 250)}}, Projs: []string{"A"}},
		{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(-1, 1<<40)}}, Projs: []string{"A", "B", "C"}},
	} {
		got, _ := re.Query(q)
		want, _ := twin.Query(q)
		if !reflect.DeepEqual(sortedRows(got, q.Projs), sortedRows(want, q.Projs)) {
			t.Fatalf("reopened store diverges from its Scan twin on %+v", q)
		}
	}
}

// TestRefusedDurableInsertIsAnInBandError: a durable engine refuses an
// insert of the wrong width with key -1. The client must get an in-band
// error for it, as it does from a plain stack, not a negative key its
// decoder rejects as a corrupt frame and retries over fresh connections.
func TestRefusedDurableInsertIsAnInBandError(t *testing.T) {
	e, err := engine.OpenDurable(engine.Sideways, buildRel(32, 500, 100), t.TempDir(), engine.DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer engine.CloseDurable(e)
	c := dial(t, startServer(t, e, Options{}), client.Options{})

	if _, err := c.Insert(1, 2); err == nil || !strings.Contains(err.Error(), "insert refused") {
		t.Fatalf("two-value insert into three attributes: err %v, want an in-band refusal", err)
	}
	if ctr := c.Counters(); ctr.Retries != 0 || ctr.Redials != 0 {
		t.Fatalf("the refusal cost %d retries and %d redials, want none", ctr.Retries, ctr.Redials)
	}
	q := engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(10, 40)}}, Projs: []string{"B"}}
	if _, _, err := c.Query(q); err != nil {
		t.Fatalf("query after the refusal: %v", err)
	}
}
