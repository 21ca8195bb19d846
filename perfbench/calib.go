package main

import (
	"slices"
	"time"
)

// The host's speed drifts by tens of percent over minutes (other tenants
// share its cores and caches), and it moves every timing of a run
// together. So the run also times a fixed calibration kernel after
// every period, and each end-to-end timing is scaled by
// calibNominal / (the kernel's median time in the run): the timing the
// run would have read on a host where the kernel takes calibNominal.
// The kernel is the benchmark's own code and never changes, so a change
// to the program moves the scaled timings as much as the raw ones.
const calibNominal = 40 * time.Millisecond

// calibShare is the least share of a period's wall time spent timing
// the kernel after it; the kernel runs at least once per period.
const calibShare = 0.10

// calibrate times the kernel after a period of the given wall time.
func calibrate(wall time.Duration) []time.Duration {
	var ds []time.Duration
	var total time.Duration
	for len(ds) == 0 || total < time.Duration(calibShare*float64(wall)) {
		d := calibKernel()
		ds = append(ds, d)
		total += d
	}
	return ds
}

type calibNode struct {
	key  uint64
	next *calibNode
	pad  [4]uint64
}

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibKernel runs a fixed job shaped like the program's hot paths:
// small allocations, map inserts and lookups, a pointer chase and a
// sort, over a working set of about 10 MB. It returns its wall time.
func calibKernel() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	m := make(map[uint64]*calibNode)
	var head *calibNode
	keys := make([]uint64, 0, 100000)
	for i := 0; i < 100000; i++ {
		k := next()
		head = &calibNode{key: k, next: head}
		m[k%200000] = head
		keys = append(keys, k)
	}
	s := uint64(0)
	for i := 0; i < 200000; i++ {
		if n, ok := m[next()%200000]; ok {
			s += n.key
		}
	}
	slices.Sort(keys)
	for n := head; n != nil; n = n.next {
		s += n.pad[0]
	}
	calibSink += s + keys[0]
	return time.Since(t)
}
