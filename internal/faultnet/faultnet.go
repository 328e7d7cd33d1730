// Package faultnet injects deterministic network faults under the remote-
// serving stack: a net.Conn / net.Listener wrapper and an in-process TCP
// proxy that — driven by a seeded RNG — delay operations, corrupt or
// truncate byte streams, cut connections mid-frame, short-write, and stall
// accepts. It exists so the resilience layer (client retries, idempotency
// tokens, hedged reads, overload shedding) can be exercised against real
// failures in ordinary tests (in process and against a real crackserved
// child: cmd/crackserved's daemon test) and as a `crackserved -fault-rate`
// debug mode, without ever touching iptables or real packet loss.
//
// All randomness flows from one seeded source per Injector, so a run is
// reproducible given its seed and the (scheduler-dependent) order of
// operations: fault *decisions* are deterministic per draw even when
// concurrency makes the draw order vary.
//
// Faults are injected on the write side of a wrapped conn (and optionally
// on reads for listener-wrapped conns): a corrupted write is seen by the
// peer as a corrupted read, which is exactly how real corruption arrives.
// The wire protocol's frame checksum turns silent corruption into a
// detectable connection error, which the client then retries — the chaos
// property tests assert zero wrong answers survive this pipeline.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Faults configures the injector: each rate is the per-operation
// probability (0..1) of that fault firing on a Read/Write/Accept.
type Faults struct {
	// Seed drives every fault decision; runs with equal seeds and equal
	// operation orders make identical decisions.
	Seed int64

	// DelayRate stalls an operation for a uniform duration in
	// [DelayMin, DelayMax] before it proceeds (slow peer, congested link).
	DelayRate float64
	DelayMin  time.Duration
	DelayMax  time.Duration

	// CorruptRate flips one byte of the transferred chunk (bit rot, broken
	// middlebox). The peer's frame checksum catches it.
	CorruptRate float64

	// PartialWriteRate writes only a prefix of the chunk and fails the
	// connection (peer saw a truncated stream).
	PartialWriteRate float64

	// TruncateRate forwards a prefix of the chunk and then closes the
	// connection (mid-frame cut).
	TruncateRate float64

	// ResetRate closes the connection before the operation (abrupt peer
	// death / RST).
	ResetRate float64

	// AcceptStallRate delays an Accept by AcceptStall (listener overload,
	// SYN queue pressure).
	AcceptStallRate float64
	AcceptStall     time.Duration
}

// Mix returns the standard chaos mixture at an aggregate fault rate: the
// rate is split across corruption, resets, partial writes, truncation, and
// delays, which together exercise every failure path the resilience layer
// defends (checksum rejection, retry-after-send with idempotency tokens,
// redial with backoff, hedging past stragglers).
func Mix(rate float64, seed int64) Faults {
	return Faults{
		Seed:             seed,
		DelayRate:        rate * 0.2,
		DelayMin:         200 * time.Microsecond,
		DelayMax:         2 * time.Millisecond,
		CorruptRate:      rate * 0.2,
		PartialWriteRate: rate * 0.2,
		TruncateRate:     rate * 0.2,
		ResetRate:        rate * 0.2,
	}
}

// ErrInjected is the base error of every injected fault, so tests and
// retry classifiers can tell injected failures from real ones.
var ErrInjected = errors.New("faultnet: injected fault")

// Injector makes seeded fault decisions. One Injector is shared by every
// conn of a listener or proxy, so the configured rates hold across the
// whole run rather than per connection.
type Injector struct {
	f  Faults
	mu sync.Mutex
	r  *rand.Rand
}

// NewInjector builds an injector from a fault configuration.
func NewInjector(f Faults) *Injector {
	return &Injector{f: f, r: rand.New(rand.NewSource(f.Seed))}
}

// pick is the seeded per-operation draw every fault wrapper shares (Conn
// on the network side, FaultFile on the storage side). One uniform draw
// walks the cumulative distribution over rates — so each rate is the
// marginal probability of its fault, independent of evaluation order — and
// a second draw (cut) parameterizes whichever fault fired (prefix length,
// delay fraction, byte position). Exactly two draws per operation, always,
// which is what keeps a run reproducible per seed across refactors.
func (in *Injector) pick(rates []float64) (choice int, cut float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	x := in.r.Float64()
	cut = in.r.Float64()
	for i, rate := range rates {
		if x -= rate; x < 0 {
			return i, cut
		}
	}
	return -1, cut
}

// draw is one seeded uniform draw.
func (in *Injector) draw() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.r.Float64()
}

// decide draws the fault (if any) for one network operation. Read-side
// operations keep zero-rate slots for the write-only faults so the draw
// sequence (and thus every seeded run) is unchanged by the shared core.
func (in *Injector) decide(write bool) (fault byte, delay time.Duration, cut float64) {
	f := in.f
	rates := [5]float64{f.ResetRate, 0, 0, 0, f.DelayRate}
	if write {
		rates[1], rates[2], rates[3] = f.CorruptRate, f.PartialWriteRate, f.TruncateRate
	}
	choice, cut := in.pick(rates[:])
	switch choice {
	case 0:
		return 'R', 0, cut
	case 1:
		return 'C', 0, cut
	case 2:
		return 'P', 0, cut
	case 3:
		return 'T', 0, cut
	case 4:
		span := f.DelayMax - f.DelayMin
		if span < 0 {
			span = 0
		}
		return 'D', f.DelayMin + time.Duration(cut*float64(span)), cut
	}
	return 0, 0, cut
}

// stallAccept draws the accept-stall decision.
func (in *Injector) stallAccept() (time.Duration, bool) {
	if in.f.AcceptStallRate <= 0 {
		return 0, false
	}
	if in.draw() >= in.f.AcceptStallRate {
		return 0, false
	}
	d := in.f.AcceptStall
	if d <= 0 {
		d = 5 * time.Millisecond
	}
	return d, true
}

// Conn wraps a net.Conn with fault injection. Writes may be delayed,
// corrupted, short-written, truncated, or turned into resets; reads may be
// delayed or reset (read-side corruption is redundant — the peer's writes
// were already eligible when both sides are wrapped, and a proxy wraps the
// forwarding writes of both directions).
type Conn struct {
	net.Conn
	inj *Injector
}

// WrapConn wraps nc with the injector's faults.
func WrapConn(nc net.Conn, inj *Injector) *Conn { return &Conn{Conn: nc, inj: inj} }

func (c *Conn) Read(p []byte) (int, error) {
	switch fault, delay, _ := c.inj.decide(false); fault {
	case 'R':
		c.Conn.Close()
		return 0, fmt.Errorf("%w: read reset", ErrInjected)
	case 'D':
		time.Sleep(delay)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	fault, delay, cut := c.inj.decide(true)
	switch fault {
	case 'R':
		c.Conn.Close()
		return 0, fmt.Errorf("%w: write reset", ErrInjected)
	case 'D':
		time.Sleep(delay)
	case 'C':
		if len(p) > 0 {
			// Copy before flipping: the net.Conn contract forbids mutating
			// the caller's buffer, and the client retries from it.
			dup := append([]byte(nil), p...)
			dup[int(cut*float64(len(dup)))%len(dup)] ^= 0xA5
			return c.Conn.Write(dup)
		}
	case 'P':
		n := int(cut * float64(len(p)))
		if n >= len(p) && len(p) > 0 {
			n = len(p) - 1
		}
		wrote, _ := c.Conn.Write(p[:n])
		c.Conn.Close()
		return wrote, fmt.Errorf("%w: partial write %d/%d", ErrInjected, wrote, len(p))
	case 'T':
		n := int(cut * float64(len(p)))
		if n >= len(p) && len(p) > 0 {
			n = len(p) - 1
		}
		c.Conn.Write(p[:n])
		c.Conn.Close()
		return 0, fmt.Errorf("%w: stream truncated after %d/%d", ErrInjected, n, len(p))
	}
	return c.Conn.Write(p)
}

// Listener wraps a net.Listener: accepts may stall, and every accepted
// conn carries the shared injector. This is the `crackserved -fault-rate`
// debug mode — the daemon itself misbehaves, no proxy required.
type Listener struct {
	net.Listener
	inj *Injector
}

// WrapListener wraps ln with fault injection from f.
func WrapListener(ln net.Listener, f Faults) *Listener {
	return &Listener{Listener: ln, inj: NewInjector(f)}
}

func (l *Listener) Accept() (net.Conn, error) {
	if d, ok := l.inj.stallAccept(); ok {
		time.Sleep(d)
	}
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(nc, l.inj), nil
}

// ---------------------------------------------------------------------------
// In-process proxy.

// Proxy is a TCP forwarder that injects faults into both directions of
// every proxied connection: tests put it between a healthy client and a
// healthy server so neither endpoint needs fault hooks.
type Proxy struct {
	ln     net.Listener
	target string
	inj    *Injector

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy listens on addr (e.g. "127.0.0.1:0") and forwards every
// connection to target with faults injected on the forwarded streams.
func NewProxy(addr, target string, f Faults) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, inj: NewInjector(f), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — dial this instead of the
// target.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Close stops accepting and severs every proxied connection.
func (p *Proxy) Close() error {
	if p.sever() {
		p.wg.Wait()
	}
	return nil
}

// sever marks the proxy closed and closes its listener and every proxied
// connection; false when it was already closed.
func (p *Proxy) sever() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.closed = true
	p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	return true
}

// track registers a proxied pair and counts its two pumps, unless Close
// already ran.
func (p *Proxy) track(in, out net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[in] = struct{}{}
	p.conns[out] = struct{}{}
	p.wg.Add(2)
	return true
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		if d, ok := p.inj.stallAccept(); ok {
			time.Sleep(d)
		}
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		if !p.track(in, out) {
			in.Close()
			out.Close()
			return
		}
		// Faults ride on the forwarding writes, so each direction sees
		// delays, corruption, truncation, and resets independently.
		go p.pump(in, WrapConn(out, p.inj))
		go p.pump(out, WrapConn(in, p.inj))
	}
}

// pump copies src -> dst until either side dies, then severs both so the
// peer observes the failure instead of a half-open hang.
func (p *Proxy) pump(src net.Conn, dst *Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
	p.mu.Lock()
	delete(p.conns, src)
	delete(p.conns, dst.Conn)
	p.mu.Unlock()
}
