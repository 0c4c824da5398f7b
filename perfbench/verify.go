package main

import (
	"bytes"
	"encoding/binary"
)

// chunkSize is the bulk workload's write size, and the unit in which
// the seeded byte stream is tagged.
const chunkSize = 64 << 10

// patternLen is the period of the seeded filler bytes. Every chunk
// also carries its own index in its first 8 bytes, so a reordered,
// duplicated or dropped chunk fails verification even though filler
// repeats.
const patternLen = 1 << 20

// pattern is a seeded byte stream with random access: chunk k is
// filler bytes starting at a k-dependent offset, with its first 8 bytes
// replaced by a tag derived from k and the seed.
type pattern struct {
	mix  uint64
	data []byte // patternLen + chunkSize filler bytes
}

func newPattern(seed int64) *pattern {
	p := &pattern{mix: splitmix(uint64(seed) ^ 0x5eed), data: make([]byte, patternLen+chunkSize)}
	s := uint64(seed)
	for i := 0; i < len(p.data); i += 8 {
		s += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(p.data[i:], splitmix(s))
	}
	return p
}

// splitmix is the SplitMix64 finalizer.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *pattern) base(k uint64) int { return int((k * 4099 * 16) % patternLen) }

func (p *pattern) tag(k uint64) uint64 { return splitmix(k ^ p.mix) }

// chunk writes chunk k of the stream into dst (len(dst) ≥ chunkSize).
func (p *pattern) chunk(k uint64, dst []byte) []byte {
	dst = dst[:chunkSize]
	copy(dst, p.data[p.base(k):])
	binary.LittleEndian.PutUint64(dst, p.tag(k))
	return dst
}

// verifier checks a received byte stream against the pattern, in
// reads of any size and alignment.
type verifier struct {
	p   *pattern
	off uint64 // stream offset of the next expected byte
}

// check verifies b as the next bytes of the stream and reports whether
// all of them match.
func (v *verifier) check(b []byte) bool {
	ok := true
	var tag [8]byte
	for len(b) > 0 {
		k, in := v.off/chunkSize, int(v.off%chunkSize)
		n := min(len(b), chunkSize-in)
		seg := b[:n]
		if in < 8 {
			binary.LittleEndian.PutUint64(tag[:], v.p.tag(k))
			t := min(8-in, n)
			if !bytes.Equal(seg[:t], tag[in:in+t]) {
				ok = false
			}
			seg, in = seg[t:], in+t
		}
		start := v.p.base(k) + in
		if !bytes.Equal(seg, v.p.data[start:start+len(seg)]) {
			ok = false
		}
		v.off += uint64(n)
		b = b[n:]
	}
	return ok
}
