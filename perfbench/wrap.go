package main

import (
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	tcpls "github.com/pluginized-protocols/gotcpls"
)

// Traced-run transport wrappers. core type-asserts optional methods on
// the transport (core.Introspector for cwnd-matched record sizing and
// user timeouts, Abort for failed paths, SetTraceID for trace
// correlation, AcceptBatch for batched accepts) and reads AddrPort from
// addresses when present; a wrapper that hid any of them would change
// the run it measures. So a wrapper implements exactly the optional
// methods its inner value does (tcpnet connections have all of them,
// the pipe none), and returns the inner addresses as they are.

// tcpExtras is the set of optional methods a tcpnet connection offers.
type tcpExtras interface {
	CWndInfo() (int, int, int)
	SetUserTimeout(d time.Duration)
	Abort()
	SetTraceID(id uint32)
}

// wireStats counts TLS records and bytes written by wrapped
// connections, parsed from the record headers on the wire.
type wireStats struct {
	records, bytes, writes atomic.Int64
}

// wireCount is a snapshot of wireStats, or a difference of two.
type wireCount struct{ records, bytes, writes int64 }

func (s *wireStats) load() wireCount {
	return wireCount{s.records.Load(), s.bytes.Load(), s.writes.Load()}
}

func (c wireCount) sub(o wireCount) wireCount {
	return wireCount{c.records - o.records, c.bytes - o.bytes, c.writes - o.writes}
}

// recordScanner follows TLS record boundaries through a byte stream
// written in arbitrary pieces. It is used by one writer at a time
// (core serializes writes per connection).
type recordScanner struct {
	hdr  [5]byte
	have int // header bytes seen of the current record
	left int // body bytes remaining of the current record
}

// scan consumes p and returns how many records started in it.
func (r *recordScanner) scan(p []byte) (records int) {
	for len(p) > 0 {
		if r.left > 0 {
			n := min(r.left, len(p))
			r.left -= n
			p = p[n:]
			continue
		}
		n := copy(r.hdr[r.have:], p)
		r.have += n
		p = p[n:]
		if r.have == len(r.hdr) {
			records++
			r.left = int(r.hdr[3])<<8 | int(r.hdr[4])
			r.have = 0
		}
	}
	return records
}

type tracedConn struct {
	net.Conn
	tr      *tracer
	side    uint8
	wk, rk  spanKind
	wire    *wireStats
	scanner recordScanner
}

func (c *tracedConn) Write(p []byte) (int, error) {
	s := c.tr.begin()
	n, err := c.Conn.Write(p)
	c.tr.end(s, c.wk, c.side, 0, 0)
	c.wire.writes.Add(1)
	c.wire.bytes.Add(int64(n))
	c.wire.records.Add(int64(c.scanner.scan(p[:n])))
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	s := c.tr.begin()
	n, err := c.Conn.Read(p)
	c.tr.end(s, c.rk, c.side, 0, 0)
	return n, err
}

// tracedTCPConn is a tracedConn over a connection with tcpExtras.
type tracedTCPConn struct {
	*tracedConn
	x tcpExtras
}

func (c tracedTCPConn) CWndInfo() (int, int, int)      { return c.x.CWndInfo() }
func (c tracedTCPConn) SetUserTimeout(d time.Duration) { c.x.SetUserTimeout(d) }
func (c tracedTCPConn) Abort()                         { c.x.Abort() }
func (c tracedTCPConn) SetTraceID(id uint32)           { c.x.SetTraceID(id) }

// wrapper produces traced transports for one run.
type wrapper struct {
	tr   *tracer
	wire *wireStats
}

func (w *wrapper) conn(c net.Conn, side uint8) net.Conn {
	tc := &tracedConn{Conn: c, tr: w.tr, side: side, wire: w.wire, wk: kPipeWrite, rk: kPipeRead}
	if x, ok := c.(tcpExtras); ok {
		tc.wk, tc.rk = kTCPWrite, kTCPRead
		return tracedTCPConn{tc, x}
	}
	return tc
}

type tracedListener struct {
	net.Listener
	w *wrapper
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.w.conn(c, sideServer), nil
}

type batchAccepter interface {
	AcceptBatch(dst []net.Conn) int
}

// tracedBatchListener is a tracedListener over a listener with
// AcceptBatch.
type tracedBatchListener struct {
	*tracedListener
	b batchAccepter
}

func (l tracedBatchListener) AcceptBatch(dst []net.Conn) int {
	n := l.b.AcceptBatch(dst)
	for i := 0; i < n; i++ {
		dst[i] = l.w.conn(dst[i], sideServer)
	}
	return n
}

func (w *wrapper) listener(l net.Listener) net.Listener {
	tl := &tracedListener{Listener: l, w: w}
	if b, ok := l.(batchAccepter); ok {
		return tracedBatchListener{tl, b}
	}
	return tl
}

type tracedDialer struct {
	inner tcpls.Dialer
	w     *wrapper
}

func (d tracedDialer) Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (net.Conn, error) {
	s := d.w.tr.begin()
	c, err := d.inner.Dial(laddr, raddr, timeout)
	if err != nil {
		return nil, err
	}
	if _, ok := c.(tcpExtras); ok {
		d.w.tr.end(s, kDial, sideClient, 0, 0)
	}
	return d.w.conn(c, sideClient), nil
}

func (w *wrapper) dialer(d tcpls.Dialer) tcpls.Dialer { return tracedDialer{inner: d, w: w} }
