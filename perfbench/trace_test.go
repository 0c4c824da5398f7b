package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{id: 1, kind: kOp, start: 0, end: 100},
		{id: 2, parent: 1, kind: kWrite, start: 10, end: 40},
		{id: 3, parent: 1, kind: kRead, start: 30, end: 60}, // overlaps span 2
		{id: 4, parent: 2, kind: kTCPWrite, start: 15, end: 20},
		{id: 5, parent: 1, kind: kClose, start: 90, end: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	// op: 100 - |[10,60] ∪ [90,100]| = 100 - 60; write: 30 - 5.
	want := []int64{40, 25, 30, 5, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestResolveParentsPicksInnermostCallerOnSameSide(t *testing.T) {
	spans := []span{
		{id: 1, kind: kWrite, side: sideClient, op: 7, start: 0, end: 100},
		{id: 2, kind: kWrite, side: sideClient, op: 8, start: 20, end: 50},
		{id: 3, kind: kWrite, side: sideServer, op: 9, start: 25, end: 45},
		{id: 4, kind: kTCPWrite, side: sideClient, start: 30, end: 40}, // inside 1 and 2
		{id: 5, kind: kTCPWrite, side: sideClient, start: 60, end: 70}, // inside 1 only
		{id: 6, kind: kTCPRead, side: sideClient, start: 90, end: 110}, // outside every caller
	}
	resolveParents(spans)
	for _, tc := range []struct {
		i      int
		parent uint32
		op     uint64
	}{{3, 2, 8}, {4, 1, 7}, {5, 0, 0}} {
		if s := spans[tc.i]; s.parent != tc.parent || s.op != tc.op {
			t.Errorf("span %d: parent %d op %d, want parent %d op %d", s.id, s.parent, s.op, tc.parent, tc.op)
		}
	}
}

func TestAnalyzeAggregatesByKind(t *testing.T) {
	spans := []span{
		{id: 1, kind: kWrite, side: sideClient, start: 0, end: 10_000},
		{id: 2, kind: kTCPWrite, side: sideClient, start: 2_000, end: 6_000},
		{id: 3, kind: kWrite, side: sideClient, start: 20_000, end: 22_000},
	}
	st := analyze(spans)
	if st[kWrite].n != 2 || st[kWrite].meanUS() != 6 || st[kWrite].selfMeanUS() != 4 {
		t.Errorf("core.write: n=%d mean=%vµs self=%vµs, want 2, 6, 4", st[kWrite].n, st[kWrite].meanUS(), st[kWrite].selfMeanUS())
	}
	if st[kTCPWrite].n != 1 || st[kTCPWrite].meanUS() != 4 {
		t.Errorf("tcpnet.write: n=%d mean=%vµs, want 1, 4", st[kTCPWrite].n, st[kTCPWrite].meanUS())
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	s := tr.begin()
	tr.end(s, kWrite, sideClient, 1, 0) // must not panic
}
