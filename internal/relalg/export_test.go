package relalg

import "hash/maphash"

// Reseed gives the process a new hash seed, as another process would have,
// and returns the function that restores the old one. Sets built under one
// seed must not be probed under another; values stay what they are (a symbol
// id does not depend on the seed).
func Reseed() (restore func()) {
	saved := hashMix
	hashMix = maphash.String(maphash.MakeSeed(), "relalg")
	return func() { hashMix = saved }
}
