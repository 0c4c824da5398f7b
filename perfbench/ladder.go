package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/core"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// The layer ladder calls the layers below core directly, with the
// workload's record shapes: raw AES-128-GCM from crypto/cipher (the
// ceiling), then tls13 record seal and open under the workload's number
// of stream contexts, and a bare tls13 handshake. Each rung's tax is
// its cost over the rung below.

// shape is a workload's record profile.
type shape struct {
	contexts   int
	minPayload int // record payload sizes, uniform in [min, max]
	maxPayload int
}

var shapes = map[string]shape{
	"bulk":  {contexts: 1, minPayload: core.MaxRecordPayload, maxPayload: core.MaxRecordPayload},
	"rpc":   {contexts: rpcStreams, minPayload: rpcMinSize, maxPayload: rpcMaxSize},
	"churn": {contexts: 1, minPayload: churnMinSize, maxPayload: churnMaxSize},
}

type ladder struct {
	gcmNsPerRecord  float64 // seal+open
	ceilingMBps     float64
	sealNsPerRecord float64
	openNsPerRecord float64
	forgeriesPerRec float64
	tax             float64
	handshakeUS     float64
	handshakesTimed int
}

// tapeConn is the ladder's transport. During the handshake it forwards
// to a pipe; afterwards the writer side records sealed bytes to a tape
// and the reader side replays the tape, so seal and open are timed
// without any transport in the way. After the switch only the ladder's
// goroutine touches the tape.
type tapeConn struct {
	net.Conn
	tape atomic.Bool
	buf  []byte
	off  int
}

func (c *tapeConn) setTape(buf []byte) {
	c.buf, c.off = buf, 0
	c.tape.Store(true)
}

func (c *tapeConn) Write(p []byte) (int, error) {
	if !c.tape.Load() {
		return c.Conn.Write(p)
	}
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *tapeConn) Read(p []byte) (int, error) {
	if !c.tape.Load() {
		return c.Conn.Read(p)
	}
	if c.off == len(c.buf) {
		return 0, io.EOF
	}
	n := copy(p, c.buf[c.off:])
	c.off += n
	return n, nil
}

// tlsPair runs a bare tls13 handshake over a pipe and returns both
// ends with their transports.
func tlsPair(cert *tls13.Certificate) (cli, srv *tls13.Conn, ct, st *tapeConn, err error) {
	a, b := newPipe(nil)
	ct, st = &tapeConn{Conn: a}, &tapeConn{Conn: b}
	cli = tls13.Client(ct, &tls13.Config{InsecureSkipVerify: true, NumTickets: -1})
	srv = tls13.Server(st, &tls13.Config{Certificate: cert, NumTickets: -1})
	errc := make(chan error, 1)
	go func() { errc <- srv.Handshake() }()
	cerr := cli.Handshake()
	serr := <-errc
	if cerr != nil || serr != nil {
		a.Close()
		return nil, nil, nil, nil, fmt.Errorf("tls13 handshake: client %v, server %v", cerr, serr)
	}
	return cli, srv, ct, st, nil
}

// runLadder measures the rungs for shape sh, spending about d on the
// record rungs.
func runLadder(seed int64, sh shape, d time.Duration) (ladder, error) {
	var l ladder
	cert, err := tls13.GenerateSelfSigned("perfbench-ladder", nil, nil)
	if err != nil {
		return l, err
	}

	// Handshake rung: the median of bare tls13 handshakes.
	var hs []float64
	for i := 0; i < 64; i++ {
		start := time.Now()
		_, _, ct, _, err := tlsPair(cert)
		if err != nil {
			return l, err
		}
		hs = append(hs, float64(time.Since(start))/1e3)
		ct.Conn.Close()
	}
	l.handshakeUS, l.handshakesTimed = median(hs), len(hs)

	cli, srv, ct, st, err := tlsPair(cert)
	if err != nil {
		return l, err
	}
	defer ct.Conn.Close()
	for id := uint32(1); id <= uint32(sh.contexts); id++ {
		if err := cli.AddStreamContext(id); err != nil {
			return l, err
		}
		if err := srv.AddStreamContext(id); err != nil {
			return l, err
		}
	}

	// A batch of records of the workload's sizes, spread over its
	// contexts like its streams are.
	const batch = 256
	rng := rand.New(rand.NewSource(seed))
	pat := newPattern(seed)
	payloads := make([][]byte, batch)
	ctxs := make([]uint32, batch)
	var batchBytes int
	for i := range payloads {
		n := sh.minPayload + rng.Intn(sh.maxPayload-sh.minPayload+1)
		off := rng.Intn(patternLen)
		payloads[i] = pat.data[off : off+n]
		ctxs[i] = uint32(i%sh.contexts) + 1
		batchBytes += n
	}

	// tls13 rung: seal the batch onto the tape, open it from the tape.
	var sealNs, openNs time.Duration
	var records int
	forge0 := srv.ForgeryCount()
	tape := make([]byte, 0, batchBytes+batch*64)
	deadline := time.Now().Add(d / 2)
	for time.Now().Before(deadline) {
		ct.setTape(tape[:0])
		start := time.Now()
		for i, p := range payloads {
			if err := cli.WriteRecordContext(ctxs[i], p); err != nil {
				return l, fmt.Errorf("seal: %w", err)
			}
		}
		sealNs += time.Since(start)
		sealed := ct.buf
		st.setTape(sealed)
		start = time.Now()
		for i := range payloads {
			id, got, err := srv.ReadRecordContext()
			if err != nil {
				return l, fmt.Errorf("open: %w", err)
			}
			if id != ctxs[i] || len(got) != len(payloads[i]) {
				return l, fmt.Errorf("open: record %d came back under context %d with %d bytes", i, id, len(got))
			}
			bufpool.Put(got)
		}
		openNs += time.Since(start)
		records += batch
		tape = sealed
	}
	l.sealNsPerRecord = float64(sealNs) / float64(records)
	l.openNsPerRecord = float64(openNs) / float64(records)
	l.forgeriesPerRec = float64(srv.ForgeryCount()-forge0) / float64(records)

	// Ceiling rung: raw AES-128-GCM seal+open of the same payloads.
	key := make([]byte, 16)
	rng.Read(key)
	block, err := aes.NewCipher(key)
	if err != nil {
		return l, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return l, err
	}
	nonce := make([]byte, gcm.NonceSize())
	sealBuf := make([]byte, 0, core.MaxRecordPayload+64)
	openBuf := make([]byte, 0, core.MaxRecordPayload+64)
	var gcmNs time.Duration
	var gcmRecords int
	deadline = time.Now().Add(d / 2)
	for time.Now().Before(deadline) {
		start := time.Now()
		for i, p := range payloads {
			nonce[0] = byte(i)
			sealed := gcm.Seal(sealBuf[:0], nonce, p, nil)
			if _, err := gcm.Open(openBuf[:0], nonce, sealed, nil); err != nil {
				return l, err
			}
		}
		gcmNs += time.Since(start)
		gcmRecords += batch
	}
	l.gcmNsPerRecord = float64(gcmNs) / float64(gcmRecords)
	l.ceilingMBps = float64(batchBytes) / float64(batch) / l.gcmNsPerRecord * 1e3
	l.tax = (l.sealNsPerRecord + l.openNsPerRecord) / l.gcmNsPerRecord
	return l, nil
}
