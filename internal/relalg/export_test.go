package relalg

import "hash/maphash"

// Reseed gives the process a new hash seed, as another process would have,
// and returns the function that restores the old one. Values built under one
// seed must not meet values built under another.
func Reseed() (restore func()) {
	savedSeed, savedMix := hashSeed, hashMix
	hashSeed = maphash.MakeSeed()
	hashMix = maphash.String(hashSeed, "relalg")
	return func() { hashSeed, hashMix = savedSeed, savedMix }
}
