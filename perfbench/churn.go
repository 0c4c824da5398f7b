package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	tcpls "github.com/pluginized-protocols/gotcpls"
)

// churn: the server holds N idle session pairs, ramped up during
// set-up; their clients run health probes and stall watchdogs like the
// flock's. Two closed-loop clients each repeat one session lifecycle:
// new session → Connect → Handshake → (in 1 of 4 sessions) JOIN a
// second TCP connection → one small echo → Close. One operation is one
// lifecycle; its latency runs from the start of Connect to the first
// echoed byte.

const (
	churnMinSize = 64
	churnMaxSize = 1 << 10
)

// Churn phases, which decide what the server application does with a
// session and whether teardown is timed.
const (
	phaseRamp int32 = iota
	phaseChurn
	phaseClosing
)

type churnEnv struct {
	o     *obs
	net   *netEnv
	lst   *tcpls.Listener
	pat   *pattern
	seed  int64
	phase atomic.Int32

	heldCli []*tcpls.Session
	mu      sync.Mutex
	heldSrv []*tcpls.Session
	hsAt    map[uint32]time.Time // client handshake returns awaiting their Accept
	accAt   map[uint32]time.Time // Accepts awaiting their client handshake
	lags    []float64            // µs
	closes  []time.Time          // client Close starts awaiting server teardown, FIFO
	tears   []float64            // µs

	churned  atomic.Int64 // lifecycle sessions closed by clients
	torn     atomic.Int64 // of those, torn down by the server
	acceptWG sync.WaitGroup
	appWG    sync.WaitGroup
}

func buildChurn(b *bench) (env, setupInfo, error) {
	t := startSetup()
	e := &churnEnv{
		pat:   newPattern(b.seed),
		seed:  b.seed,
		hsAt:  make(map[uint32]time.Time),
		accAt: make(map[uint32]time.Time),
	}
	e.o = newObs(b.held + 64)
	cert, err := tcpls.GenerateSelfSigned("perfbench", nil, nil)
	if err != nil {
		return nil, setupInfo{}, err
	}
	if e.net, err = newNetEnv(b, e.o); err != nil {
		return nil, setupInfo{}, err
	}
	e.lst = tcpls.NewListener(e.net.ln, e.o.serverConfig(cert, e.net.n, tcpls.Callbacks{
		SessionClosed: func(error) { e.serverClosed() },
	}))
	e.acceptWG.Add(1)
	go e.accept()
	e.o.startScraper()
	var before memMark
	t.pause(func() { before = markMem() })

	if err := e.ramp(b.held); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	info := setupInfo{sessions: b.held}
	t.pause(func() {
		after := markMem()
		info.heapPerSession, info.goroutinesPerSession = perSession(before, after, b.held, 0)
	})
	info.dur = t.elapsed()
	e.phase.Store(phaseChurn)
	return e, info, nil
}

// ramp opens n held sessions from two goroutines and waits until the
// server has accepted all of them.
func (e *churnEnv) ramp(n int) error {
	cfg := func() *tcpls.Config {
		return &tcpls.Config{
			TLS:                 &tcpls.TLSConfig{InsecureSkipVerify: true},
			Clock:               e.net.n,
			HealthProbeInterval: 60 * time.Second,
			HealthFailAfter:     3,
			StallTimeout:        120 * time.Second,
		}
	}
	held := make([][]*tcpls.Session, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				c := tcpls.NewClient(cfg(), e.net.dialer)
				if _, err := c.Connect(netip.Addr{}, serverAddr, 10*time.Second); err != nil {
					errs[w] = fmt.Errorf("held session %d: connect: %w", i, err)
					return
				}
				if err := c.Handshake(); err != nil {
					c.Close()
					errs[w] = fmt.Errorf("held session %d: handshake: %w", i, err)
					return
				}
				held[w] = append(held[w], c)
			}
		}(w)
	}
	wg.Wait()
	e.heldCli = append(held[0], held[1]...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !waitUntil(10*time.Second, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.heldSrv) == n
	}) {
		return fmt.Errorf("server accepted %d of %d held sessions", len(e.heldSrv), n)
	}
	return nil
}

// accept is the server application's accept loop: held sessions stay
// idle, lifecycle sessions get an echo.
func (e *churnEnv) accept() {
	defer e.acceptWG.Done()
	for {
		s, err := e.lst.Accept()
		if err != nil {
			return
		}
		now := time.Now()
		if e.phase.Load() == phaseRamp {
			e.mu.Lock()
			e.heldSrv = append(e.heldSrv, s)
			e.mu.Unlock()
			continue
		}
		id := s.ConnID()
		e.mu.Lock()
		if hs, ok := e.hsAt[id]; ok {
			delete(e.hsAt, id)
			e.lags = append(e.lags, float64(now.Sub(hs))/1e3)
		} else {
			e.accAt[id] = now
		}
		e.mu.Unlock()
		e.appWG.Add(1)
		go func() {
			defer e.appWG.Done()
			for {
				st, err := s.AcceptStream()
				if err != nil {
					return
				}
				echo(st)
			}
		}()
	}
}

// handshook pairs a client's handshake return with the server's
// Accept of the same session, by connection id.
func (e *churnEnv) handshook(id uint32, at time.Time) {
	e.mu.Lock()
	if acc, ok := e.accAt[id]; ok {
		delete(e.accAt, id)
		e.lags = append(e.lags, float64(acc.Sub(at))/1e3)
	} else {
		e.hsAt[id] = at
	}
	e.mu.Unlock()
}

// serverClosed runs as the server's SessionClosed callback. The
// callback does not say which session closed, so closes pair with
// client Close calls first in, first out; with two clients the pairing
// can swap two overlapping teardowns, which leaves the distribution
// nearly unchanged.
func (e *churnEnv) serverClosed() {
	if e.phase.Load() != phaseChurn {
		return
	}
	now := time.Now()
	e.mu.Lock()
	if len(e.closes) > 0 {
		e.tears = append(e.tears, float64(now.Sub(e.closes[0]))/1e3)
		e.closes = e.closes[1:]
		e.torn.Add(1)
	}
	e.mu.Unlock()
}

func (e *churnEnv) workers() int { return 2 }

func (e *churnEnv) load(b *bench, m *meter, deadline time.Time) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1000 + 500 + int64(w)))
			msg, resp := make([]byte, churnMaxSize), make([]byte, churnMaxSize)
			for seq := uint64(0); b.running(deadline); seq++ {
				join := rng.Intn(4) == 0
				size := churnMinSize + rng.Intn(churnMaxSize-churnMinSize+1)
				off := rng.Intn(patternLen)
				req := msg[:size]
				copy(req, e.pat.data[off:off+size])
				req[0], req[1] = byte(w), byte(seq)
				m.attempt.Add(1)
				lat, err := e.lifecycle(b, uint64(w)<<56|seq+1, join, req, resp[:size])
				if err != nil {
					b.fails.add("churn: %v", err)
					m.failed.Add(1)
					continue
				}
				m.done(w, 2*int64(size), lat) // request and echo
			}
		}(w)
	}
	wg.Wait()
}

// lifecycle runs one session from Connect to Close and returns the
// time from Connect to the first echoed byte.
func (e *churnEnv) lifecycle(b *bench, op uint64, join bool, req, resp []byte) (time.Duration, error) {
	tr := b.tr
	opSpan := tr.begin()
	defer tr.end(opSpan, kOp, sideClient, op, 0)
	start := time.Now()
	cli := tcpls.NewClient(&tcpls.Config{
		TLS:   &tcpls.TLSConfig{InsecureSkipVerify: true},
		Clock: e.net.n,
	}, e.net.dialer)
	step := func(kind spanKind, f func() error) error {
		s := tr.begin()
		err := f()
		tr.end(s, kind, sideClient, op, opSpan.id)
		return err
	}
	fail := func(what string, err error) (time.Duration, error) {
		cli.Close()
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if err := step(kConnect, func() error {
		_, err := cli.Connect(netip.Addr{}, serverAddr, 5*time.Second)
		return err
	}); err != nil {
		return fail("connect", err)
	}
	if err := step(kHandshake, cli.Handshake); err != nil {
		return fail("handshake", err)
	}
	e.handshook(cli.ConnID(), time.Now())
	if join {
		if err := step(kJoin, func() error {
			_, err := cli.Connect(netip.Addr{}, serverAddr, 5*time.Second)
			return err
		}); err != nil {
			return fail("join", err)
		}
	}
	st, err := cli.NewStream()
	if err != nil {
		return fail("stream", err)
	}
	if err := step(kWrite, func() error { _, err := st.Write(req); return err }); err != nil {
		return fail("write", err)
	}
	var first time.Time
	if err := step(kRead, func() error {
		n, err := st.Read(resp)
		first = time.Now()
		if err == nil && n < len(resp) {
			_, err = io.ReadFull(st, resp[n:])
		}
		return err
	}); err != nil {
		return fail("read", err)
	}
	if !bytes.Equal(resp, req) {
		cli.Close()
		return 0, fmt.Errorf("echo differs from its request")
	}
	e.mu.Lock()
	e.closes = append(e.closes, time.Now())
	e.mu.Unlock()
	e.churned.Add(1)
	step(kClose, cli.Close)
	return first.Sub(start), nil
}

func (e *churnEnv) transport() transport { return e.net.transport() }
func (e *churnEnv) obs() *obs            { return e.o }

func (e *churnEnv) samples() envSamples {
	e.mu.Lock()
	defer e.mu.Unlock()
	return envSamples{
		acceptLagUS: append([]float64(nil), e.lags...),
		teardownUS:  append([]float64(nil), e.tears...),
	}
}

// finish checks that every lifecycle session was torn down on the
// server, that every held session is alive and the listener is back to
// exactly the held sessions, and the ledgers; then tears down.
func (e *churnEnv) finish(b *bench) {
	if !waitUntil(10*time.Second, func() bool { return e.torn.Load() == e.churned.Load() }) {
		b.fails.add("churn: server tore down %d of %d closed sessions", e.torn.Load(), e.churned.Load())
	}
	n := len(e.heldCli)
	for i, c := range e.heldCli {
		if c.Closed() {
			b.fails.add("churn: held client session %d died: %v", i, c.Err())
		}
	}
	e.mu.Lock()
	for i, s := range e.heldSrv {
		if s.Closed() {
			b.fails.add("churn: held server session %d died: %v", i, s.Err())
		}
	}
	e.mu.Unlock()
	if got := len(e.lst.Sessions()); got != n {
		b.fails.add("churn: listener holds %d sessions, want the %d held", got, n)
	}
	if got := e.o.acct.Stats().Sessions; got != int64(n) {
		b.fails.add("churn: accounting counts %d sessions, want the %d held", got, n)
	}
	e.net.checkDrops(b)
	e.o.checkLedger(b)
	e.close()
}

func (e *churnEnv) close() {
	e.phase.Store(phaseClosing)
	for _, c := range e.heldCli {
		c.Close()
	}
	e.lst.Close()
	e.net.close()
	e.acceptWG.Wait()
	e.mu.Lock()
	srv := e.heldSrv
	e.mu.Unlock()
	for _, s := range srv {
		s.Close()
	}
	e.appWG.Wait()
	e.o.close()
}
