package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/faultnet"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// TestDaemon drives the crackserved binary itself — flags, log lines,
// signals, a real SIGKILL — which no in-process test reaches. Every answer
// is compared with a Scan engine over the relation the daemon builds from
// the same -rows/-seed.
func TestDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := t.TempDir() + "/crackserved"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// remote serves the drive through a daemon started with args; each bad
	// query first gets an in-band error, and the daemon keeps serving.
	remote := func(bad []engine.Query, args ...string) func(*testing.T) {
		return func(t *testing.T) {
			d := start(t, bin, append(args, "-rows", "50000", "-seed", "1")...)
			cl := dial(t, d.addr, client.Options{Conns: 2})
			for _, q := range bad {
				if _, _, err := cl.Query(q); err == nil || !strings.Contains(err.Error(), "no column") {
					t.Fatalf("malformed query %+v: err %v, want an in-band error", q, err)
				}
			}
			drive(t, cl, 50000, 4000)
			// A failure whose response was lost shows only in the server's count.
			if st, err := cl.Stats(); err != nil || st.Errors != len(bad) {
				t.Fatalf("server-side errors: %d, want %d (stats err %v)", st.Errors, len(bad), err)
			}
			if out := d.stop(syscall.SIGTERM); !strings.Contains(out, "drained in") {
				t.Fatalf("no drain line after SIGTERM:\n%s", out)
			}
		}
	}
	t.Run("remote", remote(nil, "-kind", "sideways"))

	t.Run("sharded", func(t *testing.T) {
		// Unknown attributes in a predicate and in a projection: each query
		// fans out over all four shards and panics inside them.
		bad := []engine.Query{
			{Preds: []engine.AttrPred{{Attr: "Z", Pred: store.Range(1, 100)}}, Projs: []string{"B"}},
			{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, 50001)}}, Projs: []string{"Z"}},
		}
		remote(bad, "-kind", "partial", "-shards", "4", "-policy", "capped")(t)
		// A durable store does not compose with shards or snapshots yet,
		// and the paper's baselines are not kinds the daemon serves: it
		// refuses each before it listens.
		for _, c := range []struct{ flag, want string }{
			{"-shards=4", "crackserved: -data-dir is incompatible with -shards and -snapshot"},
			{"-snapshot", "crackserved: -data-dir is incompatible with -shards and -snapshot"},
			{"-kind=presorted", `crackserved: unknown engine kind "presorted" (valid: scan|selcrack|sideways|partial)`},
		} {
			out, err := exec.Command(bin, "-data-dir", t.TempDir(), c.flag).CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
				t.Errorf("-data-dir with %s: err %v, output:\n%s", c.flag, err, out)
			}
		}
	})

	t.Run("chaos", func(t *testing.T) {
		d := start(t, bin, "-rows", "50000", "-seed", "1")
		px, err := faultnet.NewProxy("127.0.0.1:0", d.addr, faultnet.Mix(0.02, 7))
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		cl := dial(t, px.Addr().String(), client.Options{Conns: 2})
		drive(t, cl, 50000, 4000) // residual errors after retries count as errors
		if c := cl.Counters(); c.Retries+c.Redials == 0 {
			t.Fatalf("no fault was hit (%+v): the run exercised nothing", c)
		}
		d.stop(syscall.SIGTERM)
	})

	t.Run("metrics", func(t *testing.T) {
		d := start(t, bin, "-kind", "selcrack", "-snapshot", "-metrics-addr", "127.0.0.1:0",
			"-trace-sample", "64", "-rows", "50000", "-seed", "1")
		cl := dial(t, d.addr, client.Options{Conns: 2})
		drive(t, cl, 50000, 4000)
		text := d.get("/metrics")
		for _, fam := range []string{"crack_serve_queries_total", "crack_serve_latency_seconds_count",
			"crack_net_frames_read_total", "crack_net_conns_total", "crack_kernel_tuples_visited_total",
			"crack_index_pieces", "crack_snapshot_published_total", "crack_engine_storage_tuples"} {
			if _, ok := family(text, fam); !ok {
				t.Errorf("missing family %s", fam)
			}
		}
		for _, fam := range []string{"crack_serve_queries_total", "crack_net_frames_read_total"} {
			if v, _ := family(text, fam); v <= 0 {
				t.Errorf("family %s stuck at zero", fam)
			}
		}
		if n := strings.Count(text, "# TYPE "); n < 25 {
			t.Errorf("%d families exposed, want >= 25", n)
		}
		if !strings.Contains(d.get("/metrics?format=json"), `"crack_serve_queries_total"`) {
			t.Error("JSON twin lacks crack_serve_queries_total")
		}
		if len(d.get("/debug/pprof/profile?seconds=1")) == 0 {
			t.Error("empty CPU profile")
		}
		if out := d.stop(syscall.SIGTERM); !strings.Contains(out, `"stage":"execute"`) {
			t.Errorf("no server-side trace event with the execute stage on stderr:\n%s", out)
		}

		d = start(t, bin, "-kind", "selcrack", "-data-dir", t.TempDir(), "-metrics-addr", "127.0.0.1:0",
			"-rows", "20000", "-seed", "1")
		cl = dial(t, d.addr, client.Options{Conns: 2})
		drive(t, cl, 20000, 2000)
		text = d.get("/metrics")
		for _, fam := range []string{"crack_wal_appends_total", "crack_wal_bytes_total",
			"crack_wal_fsyncs_total", "crack_wal_tape_records", "crack_serve_queries_total"} {
			if _, ok := family(text, fam); !ok {
				t.Errorf("durable: missing family %s", fam)
			}
		}
		if v, _ := family(text, "crack_wal_tape_records"); v <= 0 {
			t.Error("cracking queries left no crack-tape records")
		}
		if out := d.stop(syscall.SIGTERM); !regexp.MustCompile(`crackserved: durable: \d+ appends`).MatchString(out) {
			t.Errorf("drain printed no durability stats:\n%s", out)
		}
	})

	t.Run("crash", func(t *testing.T) {
		// Under a policy, so recovery replays the crack tape under it too.
		args := []string{"-kind", "selcrack", "-policy", "stochastic", "-data-dir", t.TempDir(), "-rows", "50000", "-seed", "1"}
		d := start(t, bin, args...)
		cl := dial(t, d.addr, client.Options{})

		// Sentinels live far outside the relation's [1, rows] domain, so
		// queries over their band count only this test's inserts. The churn
		// runs until the daemon dies under it, so the kill lands mid-append
		// or mid-crack; an insert in flight then is submitted, not acked.
		const base = int64(1) << 40
		var acked []int64
		submitted := 0
		enough, churned := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(churned)
			gen := workload.New(50000, 2)
			for i := 0; ; i++ {
				s := base + int64(i)
				submitted++
				key, err := cl.Insert(s, s, s)
				if err != nil {
					return
				}
				if key < 0 { // refused in-band before it was applied
					continue
				}
				if acked = append(acked, s); len(acked) == 200 {
					close(enough)
				}
				if i%8 == 0 {
					if _, _, err := cl.Query(rangeQuery(gen.Range(0.001))); err != nil {
						return
					}
				}
			}
		}()
		select {
		case <-enough:
		case <-d.done:
			t.Fatalf("daemon died before 200 inserts were acked:\n%s", d.out.String())
		}
		d.stop(syscall.SIGKILL)
		<-churned

		verify := func(d *daemon) {
			t.Helper()
			cl := dial(t, d.addr, client.Options{})
			for _, s := range acked {
				res, _, err := cl.Query(engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Point(s)}}, Projs: []string{"A"}})
				if err != nil || res.N != 1 {
					t.Fatalf("acked insert %d present %d times, want exactly 1 (err %v)", s, res.N, err)
				}
			}
			res, _, err := cl.Query(engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(base, base+int64(submitted))}}, Projs: []string{"A"}})
			if err != nil || res.N < len(acked) || res.N > submitted {
				t.Fatalf("sentinel band holds %d rows, want between %d acked and %d submitted (err %v)", res.N, len(acked), submitted, err)
			}
		}
		d = start(t, bin, args...)
		if !strings.Contains(d.out.String(), "replayed recovery") {
			t.Fatalf("restart over a crash image did not replay:\n%s", d.out.String())
		}
		verify(d)
		d.stop(syscall.SIGTERM)

		d = start(t, bin, args...)
		if !strings.Contains(d.out.String(), "clean recovery") {
			t.Fatalf("restart after a SIGTERM drain replayed the log:\n%s", d.out.String())
		}
		verify(d)
		d.stop(syscall.SIGTERM)
	})
}

// daemon is one running crackserved child with its captured output.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	out     *logBuf
	done    chan struct{} // closed once the child has been reaped
	waitErr error
	addr    string // bound data address
	metrics string // bound metrics address, "" without -metrics-addr
}

type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics and pprof on http://(\S+)/metrics`)
)

// start launches the daemon on an ephemeral port and waits for its
// "listening on" line. The child lives at most two minutes: past that the
// context kills it, whatever waits on it fails, and the cleanup prints its
// output.
func start(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	d := &daemon{t: t, out: &logBuf{}, done: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		cancel()
		<-d.done
		if t.Failed() {
			t.Logf("crackserved %v:\n%s", args, d.out.String())
		}
	})
	for {
		if m := listenRE.FindStringSubmatch(d.out.String()); m != nil {
			d.addr = m[1]
			break
		}
		select {
		case <-d.done:
			t.Fatalf("daemon exited before listening (%v):\n%s", d.waitErr, d.out.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if m := metricsRE.FindStringSubmatch(d.out.String()); m != nil {
		d.metrics = m[1]
	}
	return d
}

// stop signals the child, reaps it and returns everything it printed.
// After SIGTERM the drain must end in exit status 0.
func (d *daemon) stop(sig syscall.Signal) string {
	d.t.Helper()
	d.cmd.Process.Signal(sig)
	<-d.done
	if sig == syscall.SIGTERM && d.waitErr != nil {
		d.t.Fatalf("daemon did not exit 0 after SIGTERM: %v\n%s", d.waitErr, d.out.String())
	}
	return d.out.String()
}

// get fetches a path of the daemon's metrics mux.
func (d *daemon) get(path string) string {
	d.t.Helper()
	resp, err := http.Get("http://" + d.metrics + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// family returns the value of an unlabelled sample in Prometheus text.
func family(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

func dial(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func rangeQuery(p store.Pred) engine.Query {
	return engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: p}}, Projs: []string{"B"}}
}

// drive fires n queries from 8 goroutines — three in four from a pool of 64
// ranges that soon answer warm, the rest over fresh ranges that crack — and
// checks each answer's N and projected column against a Scan engine over
// the relation crackserved builds from -rows and -seed 1. Any client error
// or differing answer fails the test. A goroutine stops at its first
// error: one is already a failure, and a dead daemon would make every
// later call wait out its retries.
func drive(t *testing.T, cl *client.Client, rows, n int) {
	t.Helper()
	const seed = 1
	rng := rand.New(rand.NewSource(seed))
	oracle := engine.Concurrent(engine.New(engine.Scan, store.Build("R", rows, []string{"A", "B", "C"},
		func(string, int) store.Value { return 1 + rng.Int63n(int64(rows)) })))
	gen := workload.New(int64(rows), seed+1)
	pool := make([]engine.Query, 64)
	for i := range pool {
		pool[i] = rangeQuery(gen.Range(0.001))
	}
	var nErrs, nWrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 100 + int64(g)))
			cold := workload.New(int64(rows), seed+200+int64(g))
			for i := 0; i < n/8; i++ {
				q := pool[rng.Intn(len(pool))]
				if rng.Intn(4) == 0 {
					q = rangeQuery(cold.Range(0.001))
				}
				got, _, err := cl.Query(q)
				if err != nil {
					nErrs.Add(1)
					return
				}
				want, _ := oracle.Query(q)
				slices.Sort(got.Cols["B"])
				slices.Sort(want.Cols["B"])
				if got.N != want.N || !slices.Equal(got.Cols["B"], want.Cols["B"]) {
					nWrong.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if nErrs.Load() != 0 || nWrong.Load() != 0 {
		t.Fatalf("%d client errors, %d answers differ from scan", nErrs.Load(), nWrong.Load())
	}
}
