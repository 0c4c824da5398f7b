package main

import (
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// The bulk workload's transport: a bounded in-memory full-duplex pipe.
// It stands in for a TCP connection with no link cost, so record
// protection and stream framing do nearly all the work. Each direction
// blocks its writer once pipeBufCap bytes are unread, like a socket
// buffer; an unbounded pipe would bill its own reallocation garbage to
// the stack under test.

// pipeBufCap is one direction's capacity: it holds a full sealed write
// burst (64 KiB) several times over.
const pipeBufCap = 256 << 10

type pipeBuf struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte // buf[off:] is unread
	off    int
	closed bool
}

func newPipeBuf() *pipeBuf {
	b := &pipeBuf{buf: make([]byte, 0, pipeBufCap)}
	b.cond.L = &b.mu
	return b
}

// pipeEnd is one end of a pipe. When busy is set, the time spent inside
// Read and Write, minus the time blocked waiting for the peer, is added
// to it: the harness's own cost, reported so it can be subtracted.
type pipeEnd struct {
	r, w *pipeBuf
	busy *atomic.Int64
}

// newPipe returns the two ends of a pipe; busy may be nil.
func newPipe(busy *atomic.Int64) (*pipeEnd, *pipeEnd) {
	a2b, b2a := newPipeBuf(), newPipeBuf()
	return &pipeEnd{r: b2a, w: a2b, busy: busy}, &pipeEnd{r: a2b, w: b2a, busy: busy}
}

// wait blocks on b.cond and returns how long it blocked when busy time
// is being accounted.
func (p *pipeEnd) wait(b *pipeBuf) time.Duration {
	if p.busy == nil {
		b.cond.Wait()
		return 0
	}
	t := time.Now()
	b.cond.Wait()
	return time.Since(t)
}

func (p *pipeEnd) account(start time.Time, waited time.Duration) {
	if p.busy != nil {
		p.busy.Add(int64(time.Since(start) - waited))
	}
}

func (p *pipeEnd) Read(b []byte) (int, error) {
	var start time.Time
	if p.busy != nil {
		start = time.Now()
	}
	var waited time.Duration
	r := p.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.buf) == r.off && !r.closed {
		waited += p.wait(r)
	}
	if len(r.buf) == r.off {
		return 0, io.EOF
	}
	n := copy(b, r.buf[r.off:])
	r.off += n
	if r.off == len(r.buf) {
		r.buf, r.off = r.buf[:0], 0
	}
	r.cond.Broadcast()
	p.account(start, waited)
	return n, nil
}

func (p *pipeEnd) Write(b []byte) (int, error) {
	var start time.Time
	if p.busy != nil {
		start = time.Now()
	}
	var waited time.Duration
	w := p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for len(b) > 0 {
		if w.closed {
			return total, io.ErrClosedPipe
		}
		if len(w.buf)-w.off >= pipeBufCap {
			waited += p.wait(w)
			continue
		}
		if w.off > 0 && cap(w.buf)-len(w.buf) < len(b) {
			w.buf = w.buf[:copy(w.buf, w.buf[w.off:])]
			w.off = 0
		}
		n := min(len(b), pipeBufCap-(len(w.buf)-w.off))
		w.buf = append(w.buf, b[:n]...)
		b = b[n:]
		total += n
		w.cond.Broadcast()
	}
	p.account(start, waited)
	return total, nil
}

func (p *pipeEnd) Close() error {
	for _, b := range []*pipeBuf{p.r, p.w} {
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	return nil
}

func (p *pipeEnd) LocalAddr() net.Addr              { return pipeAddr{} }
func (p *pipeEnd) RemoteAddr() net.Addr             { return pipeAddr{} }
func (p *pipeEnd) SetDeadline(time.Time) error      { return nil }
func (p *pipeEnd) SetReadDeadline(time.Time) error  { return nil }
func (p *pipeEnd) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeListener hands the server ends of pipes made by its dialer to a
// TCPLS listener.
type pipeListener struct {
	busy *atomic.Int64
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener(busy *atomic.Int64) *pipeListener {
	return &pipeListener{busy: busy, ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial implements core.Dialer: it makes a pipe and queues its server
// end for Accept.
func (l *pipeListener) Dial(netip.Addr, netip.AddrPort, time.Duration) (net.Conn, error) {
	c, s := newPipe(l.busy)
	select {
	case l.ch <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
