package main

import (
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	tcpls "github.com/pluginized-protocols/gotcpls"
)

// bulk: one session over the in-memory pipe and one stream. The client
// writes 64 KiB chunks of the seeded stream; the server checks every
// byte. One operation is 1 MiB delivered and verified; its latency runs
// from the write of its first chunk to the verification of its last
// byte.

const (
	mib          = 1 << 20
	chunksPerMiB = mib / chunkSize
	startsRing   = 1024 // MiB start times kept; far more than can be in flight
)

type bulkEnv struct {
	o       *obs
	pl      *pipeListener
	lst     *tcpls.Listener
	cli     *tcpls.Session
	srv     *tcpls.Session
	st      *tcpls.Stream
	pat     *pattern
	buf     []byte
	next    uint64 // next chunk to write
	started [startsRing]atomic.Int64

	cur       atomic.Pointer[meter]
	delivered atomic.Uint64 // verified bytes
	readErr   chan error
}

func buildBulk(b *bench) (env, setupInfo, error) {
	t := startSetup()
	e := &bulkEnv{pat: newPattern(b.seed), buf: make([]byte, chunkSize), readErr: make(chan error, 1)}
	e.o = newObs(64)
	cert, err := tcpls.GenerateSelfSigned("perfbench", nil, nil)
	if err != nil {
		return nil, setupInfo{}, err
	}
	e.pl = newPipeListener(b.pipeBusy)
	var ln net.Listener = e.pl
	var dialer tcpls.Dialer = e.pl
	if b.wrap != nil {
		ln, dialer = b.wrap.listener(e.pl), b.wrap.dialer(e.pl)
	}
	e.lst = tcpls.NewListener(ln, e.o.serverConfig(cert, nil, tcpls.Callbacks{}))
	e.o.startScraper()
	var before memMark
	t.pause(func() { before = markMem() })

	e.cli = tcpls.NewClient(&tcpls.Config{TLS: &tcpls.TLSConfig{InsecureSkipVerify: true}}, dialer)
	if _, err := e.cli.Connect(netip.Addr{}, serverAddr, 5*time.Second); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	if err := e.cli.Handshake(); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	if e.srv, err = e.lst.Accept(); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	if e.st, err = e.cli.NewStream(); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	info := setupInfo{sessions: 1}
	t.pause(func() {
		after := markMem()
		info.heapPerSession, info.goroutinesPerSession = perSession(before, after, 1, 0)
		info.heapPerSession -= 2 * pipeBufCap // the pipe's buffers are the harness's, not the session's
		go e.read(b)
		// Warm-up: one MiB fills the pools and scratch buffers of every
		// layer before anything is timed.
		if e.writeMiB(b, nil) {
			waitUntil(10*time.Second, func() bool { return e.delivered.Load() >= e.next*chunkSize })
		}
	})
	info.dur = t.elapsed()
	return e, info, nil
}

// read is the server application: it verifies every byte and closes
// an operation at each MiB boundary.
func (e *bulkEnv) read(b *bench) {
	v := verifier{p: e.pat}
	st, err := e.srv.AcceptStream()
	if err != nil {
		e.readErr <- err
		return
	}
	buf := make([]byte, chunkSize)
	for {
		n, err := st.Read(buf)
		if n > 0 {
			ok := v.check(buf[:n])
			if !ok {
				b.fails.add("bulk: stream bytes differ from the seeded stream near offset %d", v.off)
			}
			prev := e.delivered.Load()
			if m := e.cur.Load(); m != nil {
				if !ok {
					m.failed.Add(1)
				}
				for k := prev / mib; k < v.off/mib; k++ {
					lat := time.Duration(time.Now().UnixNano() - e.started[k%startsRing].Load())
					m.done(0, mib, lat)
				}
			}
			// Published last: load's wait on it orders every done above
			// before the window's figures are read.
			e.delivered.Store(v.off)
		}
		if err != nil {
			e.readErr <- err
			return
		}
	}
}

// writeMiB writes the next MiB of the stream and reports whether every
// write succeeded.
func (e *bulkEnv) writeMiB(b *bench, m *meter) bool {
	e.started[(e.next/chunksPerMiB)%startsRing].Store(time.Now().UnixNano())
	op := e.next / chunksPerMiB
	for i := 0; i < chunksPerMiB; i++ {
		c := e.pat.chunk(e.next, e.buf)
		s := b.tr.begin()
		_, err := e.st.Write(c)
		b.tr.end(s, kWrite, sideClient, op+1, 0)
		if err != nil {
			b.fails.add("bulk: write: %v", err)
			if m != nil {
				m.failed.Add(1)
			}
			return false
		}
		e.next++
	}
	return true
}

func (e *bulkEnv) workers() int { return 1 }

func (e *bulkEnv) load(b *bench, m *meter, deadline time.Time) {
	e.cur.Store(m)
	for b.running(deadline) {
		m.attempt.Add(1)
		if !e.writeMiB(b, m) {
			break
		}
	}
	// Let every written MiB arrive before the window closes.
	want := e.next * chunkSize
	for e.delivered.Load() < want {
		select {
		case err := <-e.readErr:
			b.fails.add("bulk: server read: %v", err)
			m.failed.Add(1)
			e.cur.Store(nil)
			return
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	e.cur.Store(nil)
}

func (e *bulkEnv) transport() transport { return transport{} }
func (e *bulkEnv) obs() *obs            { return e.o }
func (e *bulkEnv) samples() envSamples  { return envSamples{} }

func (e *bulkEnv) finish(b *bench) {
	if got, want := e.delivered.Load(), e.next*chunkSize; got != want {
		b.fails.add("bulk: server verified %d bytes, client wrote %d", got, want)
	}
	e.o.checkLedger(b)
	e.close()
}

func (e *bulkEnv) close() {
	if e.cli != nil {
		e.cli.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.lst.Close()
	e.pl.Close()
	e.o.close()
}
