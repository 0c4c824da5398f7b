package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The traced run records a span around each call the benchmark makes
// into a layer: its name, start, end, parent span, and the id of the
// operation it belongs to. Spans stay in memory and are written out
// when the run ends. Transport spans come from the wrappers in wrap.go,
// which do not know their caller; their parent is resolved afterwards
// as the innermost caller-side span on the same side that contains
// them (see resolveParents).

type spanKind uint8

const (
	kOp spanKind = iota
	kConnect
	kHandshake
	kJoin
	kWrite
	kRead
	kClose
	kDial
	kTCPWrite
	kTCPRead
	kPipeWrite
	kPipeRead
	numKinds
)

var kindNames = [numKinds]string{
	"op", "core.connect", "core.handshake", "core.join", "core.write",
	"core.read", "core.close", "tcpnet.dial", "tcpnet.write", "tcpnet.read",
	"pipe.write", "pipe.read",
}

// caller reports whether spans of kind k are recorded on the goroutine
// that calls into core, so transport spans can nest inside them.
func (k spanKind) caller() bool { return k >= kConnect && k <= kClose }

func (k spanKind) transport() bool { return k >= kDial }

// Sides of a span.
const (
	sideClient uint8 = iota
	sideServer
)

type span struct {
	id, parent uint32 // 0: none
	op         uint64
	kind       spanKind
	side       uint8
	start, end int64 // ns since the tracer's epoch
}

// maxSpans bounds the trace's memory. A traced phase stops when the
// buffer is full, so every span of the phase is kept.
const maxSpans = 1 << 18

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32
	full   atomic.Bool
	mu     sync.Mutex
	spans  []span
}

// newTracer returns a tracer whose span buffer lives outside the Go
// heap when the system allows: a multi-megabyte buffer on the heap
// would raise the garbage collector's heap goal and make the traced
// phase collect less often than the untraced one, which shows up as a
// negative tracing overhead. Spans hold no pointers, so the collector
// need not see them.
func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	size := maxSpans * int(unsafe.Sizeof(span{}))
	if mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		t.spans = unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), maxSpans)[:0]
	} else {
		t.spans = make([]span, 0, maxSpans)
	}
	return t
}

// spanStart is an open span; the zero value (from a nil tracer) is
// inert.
type spanStart struct {
	id    uint32
	start int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span. A nil tracer records nothing.
func (t *tracer) begin() spanStart {
	if t == nil {
		return spanStart{}
	}
	return spanStart{id: t.nextID.Add(1), start: t.now()}
}

// end closes s as a span of the given kind.
func (t *tracer) end(s spanStart, kind spanKind, side uint8, op uint64, parent uint32) {
	if t == nil {
		return
	}
	t.add(span{id: s.id, parent: parent, op: op, kind: kind, side: side, start: s.start, end: t.now()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// resolveParents gives each parentless transport span the innermost
// caller span on the same side whose interval contains it, and that
// span's operation id. A transport call no caller span contains (a
// read loop's acknowledgment, say) stays a root.
func resolveParents(spans []span) {
	var callers [2][]int // per side, indices sorted by start
	for i, s := range spans {
		if s.kind.caller() {
			callers[s.side] = append(callers[s.side], i)
		}
	}
	for side := range callers {
		c := callers[side]
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].start < spans[c[b]].start })
	}
	for i := range spans {
		s := &spans[i]
		if !s.kind.transport() || s.parent != 0 {
			continue
		}
		c := callers[s.side]
		// Candidates start at or before s; scan back from the latest.
		j := sort.Search(len(c), func(j int) bool { return spans[c[j]].start > s.start }) - 1
		for scanned := 0; j >= 0 && scanned < 64; j, scanned = j-1, scanned+1 {
			p := spans[c[j]]
			if p.end >= s.end {
				s.parent, s.op = p.id, p.op
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	byID := make(map[uint32]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			children[p] = append(children[p], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s.start, s.end, children[i])
	}
	return self
}

// covered is the length of [lo,hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// kindStats aggregates spans of one kind.
type kindStats struct {
	n         int
	dur, self int64 // summed ns
}

func (k kindStats) meanUS() float64 {
	if k.n == 0 {
		return 0
	}
	return float64(k.dur) / float64(k.n) / 1e3
}

func (k kindStats) selfMeanUS() float64 {
	if k.n == 0 {
		return 0
	}
	return float64(k.self) / float64(k.n) / 1e3
}

// analyze resolves parents, computes self times and aggregates by
// kind.
func analyze(spans []span) [numKinds]kindStats {
	resolveParents(spans)
	self := selfTimes(spans)
	var out [numKinds]kindStats
	for i, s := range spans {
		k := &out[s.kind]
		k.n++
		k.dur += s.end - s.start
		k.self += self[i]
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sides := [2]string{"client", "server"}
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"side":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.op, kindNames[s.kind], sides[s.side], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
