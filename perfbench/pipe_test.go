package main

import (
	"bytes"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestPipeDeliversInOrderUnderBackpressure(t *testing.T) {
	a, b := newPipe(nil)
	data := make([]byte, 3*pipeBufCap+777) // larger than a direction holds
	rand.New(rand.NewSource(1)).Read(data)
	errc := make(chan error, 1)
	go func() {
		rest := data
		for len(rest) > 0 {
			n := min(len(rest), 1+len(rest)%50_000)
			if _, err := a.Write(rest[:n]); err != nil {
				errc <- err
				return
			}
			rest = rest[n:]
		}
		errc <- a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("received %d bytes that differ from the %d sent", len(got), len(data))
	}
}

func TestPipeIsFullDuplex(t *testing.T) {
	a, b := newPipe(nil)
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("b read %q, %v", buf, err)
	}
	if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("a read %q, %v", buf, err)
	}
}

func TestPipeCloseUnblocksBothSides(t *testing.T) {
	a, b := newPipe(nil)
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 1))
		done <- err
	}()
	a.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("blocked read returned %v after close, want EOF", err)
	}
	if _, err := a.Write([]byte{1}); err != io.ErrClosedPipe {
		t.Fatalf("write after close returned %v, want ErrClosedPipe", err)
	}
}

func TestPipeBusyTimeLeavesOutWaiting(t *testing.T) {
	var busy atomic.Int64
	a, b := newPipe(&busy)
	const wait = 50 * time.Millisecond
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Read(make([]byte, 8)) // blocks until the write below
	}()
	time.Sleep(wait)
	a.Write(make([]byte, 8))
	<-done
	if got := time.Duration(busy.Load()); got <= 0 || got >= wait/2 {
		t.Fatalf("busy time %v for two 8-byte copies, one after a %v wait", got, wait)
	}
}

func TestPipeListenerPairsDialsWithAccepts(t *testing.T) {
	l := newPipeListener(nil)
	go func() {
		c, err := l.Dial(serverIP, serverAddr, time.Second)
		if err == nil {
			c.Write([]byte("hi"))
		}
	}()
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("accepted end read %q, %v", buf, err)
	}
	l.Close()
	if _, err := l.Accept(); err == nil {
		t.Fatal("Accept after Close succeeded")
	}
	if _, err := l.Dial(serverIP, serverAddr, time.Second); err == nil {
		t.Fatal("Dial after Close succeeded")
	}
}
