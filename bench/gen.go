package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// mix64 is the splitmix64 finaliser: the one hash behind stream seeding,
// value filler and the self-check of blob values.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is xorshift64*: the load generator's only randomness. Each caller
// owns one, seeded from (-seed, caller index), so a seed fixes every
// caller's op stream whatever the timing of the run.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) rng {
	s := mix64(mix64(seed) ^ mix64(stream+1))
	if s == 0 {
		s = 1
	}
	return rng{s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n) by multiply-shift (no modulo bias worth
// the name at these n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 0..n-1 with P(rank r) proportional to 1/(r+1)^s,
// from a precomputed cumulative table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf}
}

func (z *zipf) sample(r *rng) uint64 {
	u := r.float()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// Blob values are 128 bytes and self-checking: word 0 is the key, word 1
// the tag (who wrote it and when), words 2..15 are mix64 of (key^tag)+i.
// A reader can tell a torn or cross-wired value from the bytes alone, and
// the checker can tell which acknowledged put a surviving value came from.
const blobLen = 128

// preloadCaller tags values written by set-up rather than by a caller.
const preloadCaller = 0xffff

// makeTag packs a caller index and that caller's op sequence number.
// Tags are never zero: sequence numbers start at 1.
func makeTag(caller int, seq uint64) uint64 { return uint64(caller)<<48 | seq }

func tagCaller(tag uint64) int { return int(tag >> 48) }

func makeBlob(key, tag uint64) string {
	b := make([]byte, blobLen)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], tag)
	for i := 2; i < blobLen/8; i++ {
		binary.LittleEndian.PutUint64(b[8*i:], mix64((key^tag)+uint64(i)))
	}
	return string(b)
}

// checkBlob verifies s is an intact blob written for key and returns its tag.
func checkBlob(s string, key uint64) (tag uint64, ok bool) {
	if len(s) != blobLen {
		return 0, false
	}
	if leWord(s, 0) != key {
		return 0, false
	}
	tag = leWord(s, 1)
	for i := 2; i < blobLen/8; i++ {
		if leWord(s, i) != mix64((key^tag)+uint64(i)) {
			return 0, false
		}
	}
	return tag, tag != 0
}

// leWord reads the i-th little-endian 64-bit word of s.
func leWord(s string, i int) uint64 {
	s = s[8*i : 8*i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
