package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	tcpls "github.com/pluginized-protocols/gotcpls"
)

// rpc: one session over tcpnet on one netsim link with no delay and
// unlimited bandwidth, with 16 streams. Two closed-loop callers each
// send a request of seeded size and wait for the server's echo; one
// operation is one exchange, timed from the request's write to the
// last byte of its echo.

const (
	rpcStreams = 16
	rpcMinSize = 64
	rpcMaxSize = 2 << 10
)

type rpcEnv struct {
	o       *obs
	net     *netEnv
	lst     *tcpls.Listener
	cli     *tcpls.Session
	srv     *tcpls.Session
	streams []*tcpls.Stream
	pat     *pattern
	seed    int64
	wg      sync.WaitGroup // server application goroutines
}

func buildRPC(b *bench) (env, setupInfo, error) {
	t := startSetup()
	e := &rpcEnv{pat: newPattern(b.seed), seed: b.seed}
	e.o = newObs(64)
	cert, err := tcpls.GenerateSelfSigned("perfbench", nil, nil)
	if err != nil {
		return nil, setupInfo{}, err
	}
	if e.net, err = newNetEnv(b, e.o); err != nil {
		return nil, setupInfo{}, err
	}
	e.lst = tcpls.NewListener(e.net.ln, e.o.serverConfig(cert, e.net.n, tcpls.Callbacks{}))
	e.o.startScraper()
	var before memMark
	t.pause(func() { before = markMem() })

	e.cli = tcpls.NewClient(&tcpls.Config{
		TLS:   &tcpls.TLSConfig{InsecureSkipVerify: true},
		Clock: e.net.n,
	}, e.net.dialer)
	fail := func(err error) (env, setupInfo, error) {
		e.close()
		return nil, setupInfo{}, err
	}
	if _, err := e.cli.Connect(netip.Addr{}, serverAddr, 5*time.Second); err != nil {
		return fail(err)
	}
	if err := e.cli.Handshake(); err != nil {
		return fail(err)
	}
	if e.srv, err = e.lst.Accept(); err != nil {
		return fail(err)
	}
	for i := 0; i < rpcStreams; i++ {
		st, err := e.cli.NewStream()
		if err != nil {
			return fail(err)
		}
		e.streams = append(e.streams, st)
	}
	info := setupInfo{sessions: 1}
	var warm error
	t.pause(func() {
		after := markMem()
		info.heapPerSession, info.goroutinesPerSession = perSession(before, after, 1, 0)
		e.wg.Add(1)
		go e.serve(b)
		// Warm-up: one exchange per stream opens it on the server.
		req := make([]byte, rpcMinSize)
		resp := make([]byte, rpcMinSize)
		for _, st := range e.streams {
			if warm = exchange(st, req, resp); warm != nil {
				return
			}
		}
	})
	if warm != nil {
		return fail(warm)
	}
	info.dur = t.elapsed()
	return e, info, nil
}

// serve is the server application: every stream echoes what it reads.
func (e *rpcEnv) serve(b *bench) {
	defer e.wg.Done()
	for {
		st, err := e.srv.AcceptStream()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			echo(st)
		}()
	}
}

// echo writes back everything it reads until the stream ends.
func echo(st *tcpls.Stream) {
	buf := make([]byte, 16<<10)
	for {
		n, err := st.Read(buf)
		if n > 0 {
			if _, werr := st.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// exchange writes req and reads its echo into resp (len(resp) ==
// len(req)).
func exchange(st *tcpls.Stream, req, resp []byte) error {
	if _, err := st.Write(req); err != nil {
		return err
	}
	_, err := io.ReadFull(st, resp)
	return err
}

// request fills buf with a seeded request of seeded size, tagged with
// its caller and sequence number so no two requests are alike.
func (p *pattern) request(rng *rand.Rand, buf []byte, caller int, seq uint64) []byte {
	size := rpcMinSize + rng.Intn(rpcMaxSize-rpcMinSize+1)
	off := rng.Intn(patternLen)
	req := buf[:size]
	copy(req, p.data[off:off+size])
	binary.LittleEndian.PutUint64(req, uint64(caller)<<56|seq)
	return req
}

func (e *rpcEnv) workers() int { return 2 }

func (e *rpcEnv) load(b *bench, m *meter, deadline time.Time) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1000 + int64(w)))
			reqBuf, resp := make([]byte, rpcMaxSize), make([]byte, rpcMaxSize)
			for seq := uint64(0); b.running(deadline); seq++ {
				st := e.streams[w+2*int(seq%(rpcStreams/2))]
				req := e.pat.request(rng, reqBuf, w, seq)
				m.attempt.Add(1)
				op := uint64(w)<<56 | seq + 1
				opSpan := b.tr.begin()
				start := time.Now()
				ws := b.tr.begin()
				_, err := st.Write(req)
				b.tr.end(ws, kWrite, sideClient, op, opSpan.id)
				if err == nil {
					rs := b.tr.begin()
					_, err = io.ReadFull(st, resp[:len(req)])
					b.tr.end(rs, kRead, sideClient, op, opSpan.id)
				}
				lat := time.Since(start)
				b.tr.end(opSpan, kOp, sideClient, op, 0)
				switch {
				case err != nil:
					b.fails.add("rpc: exchange: %v", err)
					m.failed.Add(1)
					return
				case !bytes.Equal(resp[:len(req)], req):
					b.fails.add("rpc: echo differs from its request")
					m.failed.Add(1)
				default:
					m.done(w, 2*int64(len(req)), lat) // request and echo
				}
			}
		}(w)
	}
	wg.Wait()
}

func (e *rpcEnv) transport() transport { return e.net.transport() }
func (e *rpcEnv) obs() *obs            { return e.o }
func (e *rpcEnv) samples() envSamples  { return envSamples{} }

func (e *rpcEnv) finish(b *bench) {
	e.net.checkDrops(b)
	e.o.checkLedger(b)
	e.close()
}

func (e *rpcEnv) close() {
	if e.cli != nil {
		e.cli.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.lst != nil {
		e.lst.Close()
	}
	e.net.close()
	e.wg.Wait()
	e.o.close()
}
