package main

import (
	"math/rand"
	"testing"
)

// stream returns the first n bytes of the seeded stream.
func stream(p *pattern, n int) []byte {
	out := make([]byte, 0, n+chunkSize)
	buf := make([]byte, chunkSize)
	for k := uint64(0); len(out) < n; k++ {
		out = append(out, p.chunk(k, buf)...)
	}
	return out[:n]
}

// feed checks b through a fresh verifier in reads of random sizes.
func feed(p *pattern, b []byte, rng *rand.Rand) bool {
	v := verifier{p: p}
	ok := true
	for len(b) > 0 {
		n := min(len(b), 1+rng.Intn(3*chunkSize/2))
		if rng.Intn(4) == 0 {
			n = min(len(b), 1+rng.Intn(9)) // straddle tags with tiny reads
		}
		ok = v.check(b[:n]) && ok
		b = b[n:]
	}
	return ok
}

func TestVerifierAcceptsTheStreamInAnyPieces(t *testing.T) {
	p := newPattern(42)
	s := stream(p, 5*chunkSize+123)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if !feed(p, s, rng) {
			t.Fatalf("trial %d: the verifier rejected the unmodified stream", i)
		}
	}
}

func TestVerifierCatchesOneFlippedByte(t *testing.T) {
	p := newPattern(42)
	s := stream(p, 4*chunkSize)
	rng := rand.New(rand.NewSource(2))
	// Tag bytes, filler bytes, chunk edges and random positions.
	offsets := []int{0, 7, 8, chunkSize - 1, chunkSize, chunkSize + 3, 4*chunkSize - 1}
	for i := 0; i < 20; i++ {
		offsets = append(offsets, rng.Intn(len(s)))
	}
	for _, off := range offsets {
		bad := append([]byte(nil), s...)
		bad[off] ^= 1 << rng.Intn(8)
		if feed(p, bad, rng) {
			t.Errorf("flipped bit at offset %d went unnoticed", off)
		}
	}
}

func TestVerifierCatchesSwappedChunks(t *testing.T) {
	p := newPattern(42)
	s := stream(p, 3*chunkSize)
	bad := append([]byte(nil), s[chunkSize:2*chunkSize]...)
	bad = append(bad, s[:chunkSize]...)
	bad = append(bad, s[2*chunkSize:]...)
	if feed(p, bad, rand.New(rand.NewSource(3))) {
		t.Error("two swapped chunks went unnoticed")
	}
}

func TestPatternDependsOnSeed(t *testing.T) {
	a, b := stream(newPattern(1), 64), stream(newPattern(2), 64)
	if string(a) == string(b) {
		t.Error("seeds 1 and 2 give the same stream")
	}
	if string(a) != string(stream(newPattern(1), 64)) {
		t.Error("one seed gives two different streams")
	}
}
