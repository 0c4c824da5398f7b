package main

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tcpls "github.com/pluginized-protocols/gotcpls"
	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/core"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/tcpnet"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/simnet"
)

// bench carries one process's run state across its phases.
type bench struct {
	seed    int64
	seconds time.Duration
	held    int // churn: idle session pairs held by the server

	// tap, when set, sees every packet event of the emulated network.
	tap func(simnet.TraceEvent)

	// Set for a traced phase only.
	tr       *tracer
	wrap     *wrapper
	pipeBusy *atomic.Int64

	fails failures
}

// running reports whether load should go on: before the deadline, and
// while a traced phase still has room for spans.
func (b *bench) running(deadline time.Time) bool {
	return time.Now().Before(deadline) && (b.tr == nil || !b.tr.full.Load())
}

// failures is the run's ledger of failed output checks and errors.
type failures struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// obs is the server's observability, configured like the flock
// gauntlet's: a metrics registry, the accounting ledger, a sampled
// tracer into a ring, per-session flight recorders and the listener's
// shared runtime (health probes and stall watchdogs). The benchmark
// scrapes the registry once a second, as a monitoring agent would.
type obs struct {
	reg    *telemetry.Registry
	acct   *core.Accounting
	tracer *telemetry.Tracer

	mu      sync.Mutex
	scrapes []float64 // ms
	stop    chan struct{}
	done    chan struct{}
}

func newObs(maxSessions int) *obs {
	return &obs{
		reg: telemetry.NewRegistry(),
		acct: core.NewAccounting(core.ServerBudgets{
			MaxSessions: maxSessions,
			IdleAfter:   10 * time.Minute, // idle held sessions are the point; never shed them
		}),
		tracer: telemetry.NewTracer(
			telemetry.WithEndpoint("server"),
			telemetry.WithSink(telemetry.NewRingSink(1<<16)),
		),
	}
}

// serverConfig is the flock server configuration.
func (o *obs) serverConfig(cert *tcpls.Certificate, clock core.Clock, cb tcpls.Callbacks) *tcpls.Config {
	return &tcpls.Config{
		TLS:                 &tcpls.TLSConfig{Certificate: cert},
		Clock:               clock,
		Accounting:          o.acct,
		Tracer:              o.tracer,
		Metrics:             o.reg,
		Callbacks:           cb,
		HealthProbeInterval: 60 * time.Second,
		HealthFailAfter:     3,
		StallTimeout:        120 * time.Second,
		TraceSampleRate:     128,
		FlightRecorderSize:  64,
	}
}

// startScraper scrapes the registry's Prometheus exposition once a
// second until close.
func (o *obs) startScraper() {
	o.stop, o.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(o.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-t.C:
			}
			start := time.Now()
			if err := o.reg.WritePrometheus(io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: scrape:", err)
			}
			ms := float64(time.Since(start)) / 1e6
			o.mu.Lock()
			o.scrapes = append(o.scrapes, ms)
			o.mu.Unlock()
		}
	}()
}

func (o *obs) close() {
	if o.stop != nil {
		close(o.stop)
		<-o.done
	}
}

func (o *obs) scrapeMS() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.scrapes) == 0 {
		return 0
	}
	return median(append([]float64(nil), o.scrapes...))
}

// checkLedger verifies the accounting invariant every admitted or
// rejected connection obeys.
func (o *obs) checkLedger(b *bench) {
	st := o.acct.Stats()
	if st.ConnsSeen != st.HandshakesStarted+st.RejectedPreTLS {
		b.fails.add("accounting ledger: conns_seen %d != handshakes_started %d + rejected_pre_tls %d",
			st.ConnsSeen, st.HandshakesStarted, st.RejectedPreTLS)
	}
}

var (
	clientIP   = netip.MustParseAddr("10.0.0.1")
	serverIP   = netip.MustParseAddr("10.0.0.2")
	serverAddr = netip.AddrPortFrom(serverIP, 443)
)

// netEnv is the emulated network shared by rpc and churn: two hosts on
// one zero-delay, unlimited-bandwidth link, with a tcpnet stack each.
type netEnv struct {
	n      *simnet.Network
	link   *simnet.Link
	cs, ss *simnet.TCPStack
	tl     *simnet.TCPListener
	dialer tcpls.Dialer
	ln     net.Listener
}

func newNetEnv(b *bench, o *obs) (*netEnv, error) {
	opts := []simnet.Option{simnet.WithSeed(b.seed)}
	if b.tap != nil {
		opts = append(opts, simnet.WithTrace(b.tap))
	}
	e := &netEnv{n: simnet.NewNetwork(opts...)}
	ch, sh := e.n.Host("client"), e.n.Host("server")
	e.link = e.n.AddLink(ch, sh, clientIP, serverIP, simnet.LinkConfig{Name: "link"})
	e.cs = simnet.NewTCPStack(ch, simnet.TCPConfig{})
	e.ss = simnet.NewTCPStack(sh, simnet.TCPConfig{Metrics: o.reg})
	tl, err := e.ss.Listen(netip.Addr{}, serverAddr.Port())
	if err != nil {
		e.close()
		return nil, err
	}
	e.tl = tl
	e.ln, e.dialer = tl, simnet.Dialer{Stack: e.cs}
	if b.wrap != nil {
		e.ln, e.dialer = b.wrap.listener(tl), b.wrap.dialer(e.dialer)
	}
	return e, nil
}

func (e *netEnv) transport() transport {
	return transport{stacks: []*simnet.TCPStack{e.cs, e.ss}, link: e.link}
}

func (e *netEnv) checkDrops(b *bench) {
	if d := e.link.Stats().Drops(); d != 0 {
		b.fails.add("netsim: %d packets dropped on a link that must not drop", d)
	}
}

func (e *netEnv) close() {
	if e.tl != nil {
		e.tl.Close()
	}
	e.cs.Close()
	e.ss.Close()
	e.n.Close()
}

// setupTimer times set-up, leaving out the memory marks taken inside
// it (they force garbage collections).
type setupTimer struct {
	start    time.Time
	excluded time.Duration
}

func startSetup() *setupTimer { return &setupTimer{start: time.Now()} }

func (s *setupTimer) pause(f func()) {
	t := time.Now()
	f()
	s.excluded += time.Since(t)
}

func (s *setupTimer) elapsed() time.Duration { return time.Since(s.start) - s.excluded }

// memMark is the live heap and goroutine count after garbage
// collection.
type memMark struct {
	heap       uint64
	goroutines int
}

func markMem() memMark {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers and pools released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{heap: ms.HeapAlloc, goroutines: runtime.NumGoroutine()}
}

// setupInfo describes one set-up.
type setupInfo struct {
	dur                  time.Duration
	sessions             int
	heapPerSession       float64 // bytes
	goroutinesPerSession float64
}

func perSession(before, after memMark, sessions, own int) (heap, goroutines float64) {
	return (float64(after.heap) - float64(before.heap)) / float64(sessions),
		float64(after.goroutines-before.goroutines-own) / float64(sessions)
}

// transport lists the emulated-network objects whose counters a
// workload exposes (none for the in-memory pipe).
type transport struct {
	stacks []*simnet.TCPStack
	link   *simnet.Link
}

// layerSnap is a snapshot of every program-side counter the per-layer
// metrics are derived from.
type layerSnap struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	pool       bufpool.Stats
	codec      record.CodecStats
	tcp        tcpnet.StackStats
	link       netsim.LinkStats
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapshot(t transport) layerSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := layerSnap{
		cpu:        processCPU(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
		pool:       bufpool.Snapshot(),
		codec:      record.Stats(),
	}
	for _, st := range t.stacks {
		x := st.Stats()
		s.tcp.SegsSent += x.SegsSent
		s.tcp.Retransmits += x.Retransmits
	}
	if t.link != nil {
		s.link = t.link.Stats()
	}
	return s
}
