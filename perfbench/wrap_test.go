package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/core"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
	"github.com/pluginized-protocols/gotcpls/simnet"
)

type abortConn interface{ Abort() }
type traceIDConn interface{ SetTraceID(uint32) }

// TestWrappersKeepOptionalInterfaces checks that a wrapped transport
// offers core exactly the optional methods the bare one does.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	n := simnet.NewNetwork()
	defer n.Close()
	ch, sh := n.Host("client"), n.Host("server")
	n.AddLink(ch, sh, clientIP, serverIP, simnet.LinkConfig{})
	cs, ss := simnet.NewTCPStack(ch, simnet.TCPConfig{}), simnet.NewTCPStack(sh, simnet.TCPConfig{})
	defer cs.Close()
	defer ss.Close()
	tl, err := ss.Listen(netip.Addr{}, serverAddr.Port())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	w := &wrapper{tr: newTracer(), wire: &wireStats{}}

	tcp, err := simnet.Dialer{Stack: cs}.Dial(netip.Addr{}, serverAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	pipe, _ := newPipe(nil)
	for _, bare := range []net.Conn{tcp, pipe} {
		wrapped := w.conn(bare, sideClient)
		same := func(what string, has func(net.Conn) bool) {
			if has(bare) != has(wrapped) {
				t.Errorf("%T: %s offered by the bare conn: %v, by the wrapped one: %v", bare, what, has(bare), has(wrapped))
			}
		}
		same("core.Introspector", func(c net.Conn) bool { _, ok := c.(core.Introspector); return ok })
		same("Abort", func(c net.Conn) bool { _, ok := c.(abortConn); return ok })
		same("SetTraceID", func(c net.Conn) bool { _, ok := c.(traceIDConn); return ok })
		// Identical addresses keep AddrPort, where the bare ones have it.
		if wrapped.LocalAddr() != bare.LocalAddr() || wrapped.RemoteAddr() != bare.RemoteAddr() {
			t.Errorf("%T: wrapped addresses differ", bare)
		}
	}
	if x, ok := w.conn(tcp, sideClient).(core.Introspector); ok {
		cwnd, _, mss := x.CWndInfo()
		if want, _, _ := tcp.(core.Introspector).CWndInfo(); cwnd != want || mss == 0 {
			t.Errorf("wrapped CWndInfo = cwnd %d mss %d, bare cwnd %d", cwnd, mss, want)
		}
	}

	for _, bare := range []net.Listener{tl, newPipeListener(nil)} {
		_, bareOK := bare.(batchAccepter)
		_, wrapOK := w.listener(bare).(batchAccepter)
		if bareOK != wrapOK {
			t.Errorf("%T: AcceptBatch offered by the bare listener: %v, by the wrapped one: %v", bare, bareOK, wrapOK)
		}
	}
}

// tapCounter counts TLS records in the TCP byte streams a netsim trace
// shows, without touching the connections.
type tapCounter struct {
	mu      sync.Mutex
	flows   map[[2]netip.AddrPort]*tapFlow
	records [2]int // by sending side
	gaps    int
}

type tapFlow struct {
	next uint32
	sc   recordScanner
}

func (c *tapCounter) event(ev simnet.TraceEvent) {
	p := ev.Packet
	if ev.Kind != "send" || p == nil || p.Proto != wire.ProtoTCP {
		return
	}
	seg, err := wire.UnmarshalSegment(p.Payload, p.Src, p.Dst, false)
	if err != nil {
		return
	}
	key := [2]netip.AddrPort{netip.AddrPortFrom(p.Src, seg.SrcPort), netip.AddrPortFrom(p.Dst, seg.DstPort)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if seg.Flags&wire.FlagSYN != 0 {
		c.flows[key] = &tapFlow{next: seg.Seq + 1}
		return
	}
	f := c.flows[key]
	if f == nil || len(seg.Payload) == 0 {
		return
	}
	skip := f.next - seg.Seq // bytes already seen (retransmission)
	switch {
	case int32(skip) < 0:
		c.gaps++
	case int(skip) < len(seg.Payload):
		side := sideServer
		if p.Src == clientIP {
			side = sideClient
		}
		c.records[side] += f.sc.scan(seg.Payload[skip:])
		f.next += uint32(len(seg.Payload)) - skip
	}
}

func (c *tapCounter) count() [2]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records
}

// rpcRecords runs a fixed, closed-loop sequence of exchanges over the
// rpc workload's set-up and returns the TLS records per exchange the
// client sent, and all records on the wire as the packet tap and (when
// wrapped) the wrapper counted them.
func rpcRecords(t *testing.T, wrapped bool) (clientPerOp float64, tapTotal, wrapperTotal int64) {
	tap := &tapCounter{flows: make(map[[2]netip.AddrPort]*tapFlow)}
	b := &bench{seed: 5, tap: tap.event}
	if wrapped {
		b.tr = newTracer()
		b.wrap = &wrapper{tr: b.tr, wire: &wireStats{}}
	}
	e, _, err := buildRPC(b)
	if err != nil {
		t.Fatal(err)
	}
	re := e.(*rpcEnv)
	tap0 := tap.count()
	var wrap0 int64
	if wrapped {
		wrap0 = b.wrap.wire.records.Load()
	}
	const ops = 400
	rng := rand.New(rand.NewSource(9))
	reqBuf, resp := make([]byte, 64<<10), make([]byte, 64<<10)
	for i := 0; i < ops; i++ {
		req := re.pat.request(rng, reqBuf, 0, uint64(i))
		if i%50 == 0 {
			req = reqBuf[:48<<10] // a large request spans several records
		}
		if err := exchange(re.streams[i%rpcStreams], req, resp[:len(req)]); err != nil {
			t.Fatal(err)
		}
	}
	tap1 := tap.count()
	clientPerOp = float64(tap1[sideClient]-tap0[sideClient]) / ops
	tapTotal = int64(tap1[0] + tap1[1] - tap0[0] - tap0[1])
	if wrapped {
		wrapperTotal = b.wrap.wire.records.Load() - wrap0
	}
	if tap.gaps != 0 {
		t.Fatalf("the packet tap saw %d gaps on a lossless link", tap.gaps)
	}
	e.finish(b)
	if n := b.fails.n.Load(); n != 0 {
		t.Fatalf("run failed its checks: %v", b.fails.msgs)
	}
	return clientPerOp, tapTotal, wrapperTotal
}

// TestWrappedRunKeepsWireRecords checks that the traced run's
// wrappers change nothing on the wire: the client's records per
// exchange are the same with and without wrappers (the server's echo
// records follow its read timing, so they are left out of that
// comparison), and the wrapper's count of all records agrees with the
// packet tap's. On this zero-delay link the free window already exceeds
// a maximum-size record whenever a write starts, so cwnd-matched sizing
// is guarded by TestWrappersKeepOptionalInterfaces rather than here.
func TestWrappedRunKeepsWireRecords(t *testing.T) {
	bare, _, _ := rpcRecords(t, false)
	wrapped, tapTotal, wrapperTotal := rpcRecords(t, true)
	if bare != wrapped {
		t.Errorf("client records per exchange: bare run %v, wrapped run %v", bare, wrapped)
	}
	if wrapperTotal != tapTotal {
		t.Errorf("wrapper counted %d records, the wire carried %d", wrapperTotal, tapTotal)
	}
	if bare <= 1 {
		t.Errorf("%v client records per exchange; large requests need several", bare)
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced
// (churn with a small held population), and requires a correct result.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir()) // the traced runs write their spans under the working directory
	for _, name := range []string{"bulk", "rpc", "churn"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				var out bytes.Buffer
				b := &bench{seed: 3, seconds: 300 * time.Millisecond, held: 16}
				if code := execute(&out, name, b, traced); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
			})
		}
	}
}
