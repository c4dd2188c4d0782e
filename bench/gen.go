package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// rnd is the benchmark's only source of randomness: a stateless hash
// of (seed, stream, index) built from splitmix64's finalizer. Because
// op k's inputs are a pure function of (seed, k), the sender and the
// checker derive them independently and the same seed always generates
// the same inputs, however fast the run consumes them.
func rnd(seed uint64, stream, k uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(k+1) + 0xbf58476d1ce4e5b9*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Streams keep the draws for different purposes independent.
const (
	streamSym = iota
	streamQty
	streamPx
	streamPad
	streamPerm
	streamRange
	streamDesk
	streamScan
)

// permutation returns a seed-determined shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rnd(seed, streamPerm, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// padding returns n seed-determined lowercase letters, the filler that
// brings a tick event to its ~200-byte wire size.
func padding(seed uint64, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(rnd(seed, streamPad, uint64(i))%26)
	}
	return string(b)
}

// inputHash accumulates the SHA-256 of a workload's generated inputs
// (registrations, preloaded rows, and the first hashedOps ops). Wall
// clock stamps are excluded, so the digest depends on the seed alone.
type inputHash struct{ h hash.Hash }

// hashedOps is how many leading ops of the (unbounded) op stream the
// digest covers.
const hashedOps = 4096

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) add(format string, args ...any) {
	fmt.Fprintf(ih.h, format, args...)
	ih.h.Write([]byte{'\n'})
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }
