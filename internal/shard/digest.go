package shard

import "math"

// Digest accumulates a deterministic FNV-1a hash over fixed-width words.
// It backs the engines' durability checks (StateDigest, Fingerprint): the
// hash must be a pure function of the mixed values, so every input is
// widened to exactly eight bytes before hashing.
type Digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewDigest returns an empty digest.
func NewDigest() Digest { return fnvOffset }

// Word mixes one 64-bit word.
func (h *Digest) Word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	*h = Digest(x)
}

// Int mixes an int as a 64-bit word.
func (h *Digest) Int(v int) { h.Word(uint64(int64(v))) }

// Float mixes a float64's bits.
func (h *Digest) Float(v float64) { h.Word(math.Float64bits(v)) }

// Bool mixes a bool as the word 1 or 0.
func (h *Digest) Bool(v bool) {
	if v {
		h.Word(1)
	} else {
		h.Word(0)
	}
}
