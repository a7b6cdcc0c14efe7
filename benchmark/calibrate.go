package main

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The machine this benchmark runs on changes speed by a third and more over
// minutes (a shared, throttled VM), which moves every CPU-bound time with it
// and would let two runs of one commit disagree beyond any useful bound. The
// iterated workloads therefore time a fixed piece of standard-library work
// just before each timed phase and report converge_ms scaled to a reference
// speed: measured x calibRefMS / calibration. The calibration uses no code
// of this repository, so no change to the program can move it. live-fanout
// is not scaled: latency at a fixed offered rate does not follow CPU speed
// until the system saturates.

// calibRefMS is the calibration time that counts as reference speed: about
// what this machine needs when it is not being throttled.
const calibRefMS = 15.0

var calibSink atomic.Int64 // keeps the work from being optimised away

// calibRec is shaped like what the program moves: a key, a few values, a
// small map.
type calibRec struct {
	Key  string
	Vals []int64
	Tags map[string]uint64
}

// calibrate times a fixed amount of allocation, map, sort and gob work on
// every CPU at once, the mix the workloads themselves are made of.
func calibrate() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			calibSink.Add(calibWork(seed))
		}(uint64(g) + 1)
	}
	wg.Wait()
	return time.Since(t0)
}

func calibWork(x uint64) int64 {
	const n, batch = 4000, 50
	next := func() uint64 { // xorshift: the same work every time
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	recs := make([]calibRec, n)
	index := map[string]int{}
	for i := range recs {
		key := make([]byte, 12)
		for j := range key {
			key[j] = 'a' + byte(next()%26)
		}
		recs[i] = calibRec{Key: string(key), Vals: []int64{int64(next()), int64(next())}, Tags: map[string]uint64{"a": next()}}
		index[recs[i].Key] = i
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	var sum int64
	for off := 0; off < n; off += batch {
		var buf bytes.Buffer
		var back []calibRec
		if gob.NewEncoder(&buf).Encode(recs[off:off+batch]) != nil || gob.NewDecoder(&buf).Decode(&back) != nil {
			return 0 // cannot happen: gob encodes and decodes this type
		}
		for _, r := range back {
			sum += int64(index[r.Key]) + r.Vals[0]
		}
	}
	return sum
}
